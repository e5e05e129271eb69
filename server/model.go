package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/wal"
)

// model is one registered decomposition: a parsvd.SVD owned by a single
// writer goroutine (the ingest loop), a bounded queue feeding it, and a
// copy-on-publish View for readers.
//
// Concurrency contract: handlers only ever enqueue (bounded, non-blocking)
// and load the current View; every SVD method that mutates or gathers —
// Push, Result, Save, Close — is called from the ingest goroutine alone.
// Readers therefore never contend with the writer and never observe the
// engine's recycled mode storage mid-update.
type model struct {
	name string
	spec ModelSpec
	svd  *parsvd.SVD
	cfg  Config

	queue   chan *pushReq
	pending atomic.Int64 // queue depth gauge for /stats and /metrics
	view    atomic.Pointer[View]
	// base is the Stats snapshot taken at construction; statsSnapshot
	// serves it until the first View exists, so reads never touch the
	// (possibly busy) SVD.
	base parsvd.Stats

	mu     sync.RWMutex // guards closed/flush against concurrent enqueues
	closed bool
	flush  bool // whether finish applies or refuses the queued remainder
	quit   chan struct{}
	done   chan struct{}

	// Ingest-goroutine-only state.
	dirty     bool // updates since the last checkpoint
	ingestErr atomic.Pointer[string]

	// wlog is the model's write-ahead log (nil when durability is off).
	// Stored atomically because startModel attaches it after the model is
	// already visible in the registry, while /healthz and /metrics read
	// its depth concurrently.
	wlog atomic.Pointer[wal.Log]
	// dirtySince is the unix-nano timestamp of the first update since the
	// last checkpoint (0 when clean): the age of the data-at-risk window
	// /healthz reports for operators.
	dirtySince atomic.Int64

	// Boot-time recovery facts, written before run() and read-only after.
	recoverySeconds float64
	replayedOnBoot  uint64
}

// pushReq is one queued ingest operation: a snapshot batch, a compressed
// (Q, S) sketch factor pair — when sketchQ is set — or, when mergeCkpt is
// set, a checkpoint to absorb through SVD.Merge. Sketched pushes and
// merges ride the same single-writer queue as pushes, so the WAL ordering
// and durability barrier apply to them unchanged. errc is buffered so the
// ingest loop can always deliver the outcome, even when the submitting
// handler has already given up (context canceled → 499) and gone away.
type pushReq struct {
	batch            *parsvd.Matrix
	sketchQ, sketchS *parsvd.Matrix
	mergeCkpt        []byte
	errc             chan error
}

// newModel wires a model around an SVD but does not start its ingest
// loop; registry.add → run does. A restored SVD that already holds data
// publishes its initial view here, so reads work before the first push.
func newModel(spec ModelSpec, svd *parsvd.SVD, cfg Config) *model {
	m := &model{
		name:  spec.Name,
		spec:  spec,
		svd:   svd,
		cfg:   cfg,
		queue: make(chan *pushReq, cfg.QueueDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	m.base = svd.Stats()
	if st := m.base; st.Snapshots > 0 {
		if res, err := svd.Result(); err == nil {
			m.view.Store(&View{Version: uint64(st.Updates), Result: res, Stats: st})
		}
	}
	return m
}

// run starts the single-writer ingest loop.
func (m *model) run() { go m.ingestLoop() }

// currentView returns the last published View, or nil before any data.
func (m *model) currentView() *View { return m.view.Load() }

// enqueue hands a push to the ingest loop without blocking: a full queue
// is backpressure (ErrBacklogFull → 429), a closed model is
// ErrModelClosed. The RLock pairs with the exclusive lock in shutdown, so
// no request can slip into the queue after the final drain decided what
// remains.
func (m *model) enqueue(req *pushReq) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrModelClosed
	}
	// Increment before the send so the gauge never dips negative when
	// the ingest loop's decrement races this enqueue.
	m.pending.Add(1)
	select {
	case m.queue <- req:
		return nil
	default:
		m.pending.Add(-1)
		return ErrBacklogFull
	}
}

// retryAfterSeconds derives the Retry-After hint a 429 carries from the
// actual backlog instead of a fixed guess: the queued pushes drain up to
// MaxCoalesce per engine update, so ⌈pending/MaxCoalesce⌉ micro-batches
// must clear before room is guaranteed — roughly that many seconds under
// a loaded model. Clamped to [1, 30] so an empty-queue race still asks
// for a beat and a deep backlog never tells clients to vanish for good.
func (m *model) retryAfterSeconds() int {
	secs := (int(m.pending.Load()) + m.cfg.MaxCoalesce - 1) / m.cfg.MaxCoalesce
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// ingestLoop is the model's single writer: it drains the queue,
// micro-batches whatever is pending into as few engine updates as
// possible, publishes a fresh View after each applied batch, and
// checkpoints on a timer. It exits when shutdown closes quit.
func (m *model) ingestLoop() {
	defer close(m.done)
	var tick <-chan time.Time
	if m.cfg.CheckpointDir != "" && m.cfg.CheckpointInterval > 0 {
		t := time.NewTicker(m.cfg.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.quit:
			m.finish()
			return
		case <-tick:
			m.checkpointIfDirty()
		case req := <-m.queue:
			m.pending.Add(-1)
			m.apply(m.coalesce(req))
		}
	}
}

// coalesce gathers everything already waiting in the queue behind first,
// up to MaxCoalesce requests, without blocking. This is the micro-batch:
// one engine update (one blocked-GEMM pass over the stacked columns)
// amortized across every concurrent pusher.
//
// Semantics: a micro-batch is ONE streaming update, so with a forget
// factor < 1 the down-weighting applies once per micro-batch, not once
// per push — exactly as if the clients had agreed to send one stacked
// batch. Queue timing therefore decides batch boundaries under load;
// deployments that need strictly per-push update semantics set
// MaxCoalesce to 1 (Config docs, `parsvd-serve -coalesce 1`).
func (m *model) coalesce(first *pushReq) []*pushReq {
	reqs := []*pushReq{first}
	// A merge or sketched push never coalesces with anything: each is one
	// engine operation with its own WAL record, applied exactly at its
	// queue position. (Stacking sketches with raw batches would force
	// multiplying them out on the ingest loop and log the expanded rows,
	// forfeiting the compression the sender paid for.)
	if first.mergeCkpt != nil || first.sketchQ != nil {
		return reqs
	}
	for len(reqs) < m.cfg.MaxCoalesce {
		select {
		case r := <-m.queue:
			m.pending.Add(-1)
			reqs = append(reqs, r)
			if r.mergeCkpt != nil || r.sketchQ != nil {
				// The merge or sketch ends the micro-batch; apply handles
				// it as its own run after the batches queued ahead of it.
				return reqs
			}
		default:
			return reqs
		}
	}
	return reqs
}

// apply stacks queued batches into engine updates and fans the outcome
// back to each submitter. Consecutive requests with equal row counts form
// one run and are HStacked into a single Push — arrival order is
// preserved, which is what makes N coalesced single-snapshot pushes
// bit-identical to one stacked push. A run with a mismatched row count
// (only possible before the first batch pins M, or from a caller bug)
// simply starts its own run and lets Push report the dimension error.
func (m *model) apply(reqs []*pushReq) {
	for start := 0; start < len(reqs); {
		if reqs[start].mergeCkpt != nil {
			m.applyMerge(reqs[start])
			start++
			continue
		}
		if reqs[start].sketchQ != nil {
			m.applySketch(reqs[start])
			start++
			continue
		}
		end := start + 1
		rows := reqs[start].batch.Rows()
		for end < len(reqs) && reqs[end].mergeCkpt == nil && reqs[end].sketchQ == nil && reqs[end].batch.Rows() == rows {
			end++
		}
		run := reqs[start:end]
		stacked := run[0].batch
		if len(run) > 1 {
			batches := make([]*parsvd.Matrix, len(run))
			for i, r := range run {
				batches[i] = r.batch
			}
			stacked = parsvd.HStack(batches...)
		}
		err := m.svd.Push(stacked)
		if err == nil {
			// Durability barrier: the applied micro-batch is logged (and,
			// under FsyncAlways, fsynced) before any pusher sees its 200.
			// The stacked batch is recorded exactly as the engine consumed
			// it, so replay reproduces the same micro-batch boundaries —
			// and with them the same forget-factor weighting — bit for bit.
			err = m.logDurable(encodeBatchPayload(stacked))
		}
		if err == nil {
			// A publish failure (poisoned parallel world during the
			// gather) counts against the pushers too: their data is in an
			// engine that can no longer serve it.
			err = m.publish()
		} else {
			// Record the fault so /stats and listings show a dead or
			// misfed model, not just a stream of failed pushes.
			msg := err.Error()
			m.ingestErr.Store(&msg)
		}
		for _, r := range run {
			r.errc <- err
		}
		start = end
	}
}

// applyMerge absorbs a checkpoint into the model through SVD.Merge,
// with the same durability barrier as a push: the merge record (the
// absorbed checkpoint, verbatim) is in the WAL before the caller sees
// its ack, so a crash at any point recovers to exactly the pre-merge
// state (record not yet durable: replay stops before it) or the
// post-merge state (record durable: replay re-applies it) — never a
// partial merge. Merge itself validates the checkpoint fully before
// touching the engine, so a corrupt upload is a clean refusal that
// leaves the model serving.
func (m *model) applyMerge(req *pushReq) {
	err := m.svd.Merge(bytes.NewReader(req.mergeCkpt))
	if err == nil {
		err = m.logDurable(encodeMergePayload(req.mergeCkpt))
	}
	if err == nil {
		err = m.publish()
	} else if !isValidationError(err) {
		// Only record engine/durability faults in the model health: a
		// refused (incompatible or corrupt) checkpoint leaves the model
		// fully healthy.
		msg := err.Error()
		m.ingestErr.Store(&msg)
	}
	req.errc <- err
}

// applySketch ingests one compressed (Q, S) factor pair through
// SVD.PushSketch, under the same durability barrier as a push: the WAL
// record carries the pair in its compressed form (applying it is
// deterministic, so replay is bit-exact) and is durable before the
// sender sees its ack.
func (m *model) applySketch(req *pushReq) {
	err := m.svd.PushSketch(req.sketchQ, req.sketchS)
	if err == nil {
		err = m.logDurable(encodeSketchPayload(req.sketchQ, req.sketchS))
	}
	if err == nil {
		err = m.publish()
	} else {
		msg := err.Error()
		m.ingestErr.Store(&msg)
	}
	req.errc <- err
}

// isValidationError recognizes merge refusals that leave the model
// untouched, as opposed to faults of the model itself.
func isValidationError(err error) bool {
	return errors.Is(err, parsvd.ErrBadCheckpoint) ||
		errors.Is(err, parsvd.ErrMergeIncompatible) ||
		errors.Is(err, parsvd.ErrShardOverlap)
}

// logDurable appends an applied ingest record (a framed micro-batch or
// merge payload) to the write-ahead log, keyed by the engine's
// post-apply Updates counter — the same counter a checkpoint carries,
// which is what lets replay-on-boot skip records a checkpoint already
// covers. Under FsyncAlways the record is on stable storage when this
// returns; under lazier policies the append is buffered and the ack's
// meaning weakens accordingly (Config docs).
//
// A failed append leaves the engine ahead of the log, so the pushers of
// this micro-batch get ErrNotDurable instead of an ack, and — because
// the log refuses non-contiguous sequence numbers — every later push
// fails the same way rather than silently widening the divergence: the
// model is effectively read-only until the operator fixes the disk.
func (m *model) logDurable(payload []byte) error {
	wlog := m.wlog.Load()
	if wlog == nil {
		return nil
	}
	seq := uint64(m.svd.Stats().Updates)
	if err := wlog.Append(seq, payload); err != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	return nil
}

// publish deep-copies the decomposition into a fresh View and swaps it in
// (copy-on-publish). Readers holding the previous View keep it; new
// readers see this one. A failed gather (poisoned parallel world) keeps
// the last good View, records the fault for /stats and reports it.
func (m *model) publish() error {
	res, err := m.svd.Result()
	if err != nil {
		msg := err.Error()
		m.ingestErr.Store(&msg)
		m.cfg.Logf("parsvd-serve: model %s: publishing view: %v", m.name, err)
		return err
	}
	st := m.svd.Stats()
	m.view.Store(&View{Version: uint64(st.Updates), Result: res, Stats: st})
	m.dirty = true
	m.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	m.ingestErr.Store(nil) // healthy again: the last fault is history
	return nil
}

// statsSnapshot serves Stats without touching the SVD: the last published
// View's snapshot, or the construction-time baseline before any view.
// This keeps /stats, /metrics and model listings contention-free even
// while the ingest loop holds the facade lock through a large update.
func (m *model) statsSnapshot() parsvd.Stats {
	if v := m.currentView(); v != nil {
		return v.Stats
	}
	return m.base
}

// checkpointPath is where this model persists (and is restored from).
func (m *model) checkpointPath() string {
	return filepath.Join(m.cfg.CheckpointDir, m.name+".ckpt")
}

// checkpointIfDirty saves the streaming state if it changed since the
// last save. Runs on the ingest goroutine, so it never races a Push; the
// write-then-rename keeps restore-on-boot from ever seeing a torn file.
func (m *model) checkpointIfDirty() {
	if !m.dirty || m.cfg.CheckpointDir == "" {
		return
	}
	if err := m.checkpoint(); err != nil {
		m.cfg.Logf("parsvd-serve: model %s: checkpoint: %v", m.name, err)
		return
	}
	m.dirty = false
	m.dirtySince.Store(0)
	// The checkpoint is the WAL's truncation barrier: every record at or
	// below its Updates counter is now redundant, so the covered segments
	// rotate out — bounding both recovery time and disk.
	if wlog := m.wlog.Load(); wlog != nil {
		if err := wlog.Rotate(uint64(m.svd.Stats().Updates)); err != nil {
			m.cfg.Logf("parsvd-serve: model %s: rotating wal: %v", m.name, err)
		}
	}
}

func (m *model) checkpoint() error {
	path := m.checkpointPath()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.svd.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// fsync before the rename: a checkpoint that becomes the WAL's
	// truncation barrier must itself be on stable storage before the
	// covered records rotate out.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(m.cfg.CheckpointDir)
	return nil
}

// finish is the quit path of the ingest loop: by the time it runs,
// shutdown has set closed under the exclusive lock, so the queue can no
// longer grow. Whatever is still queued is flushed (or refused), a final
// checkpoint is written, and the SVD is closed.
func (m *model) finish() {
	var rest []*pushReq
	for {
		select {
		case req := <-m.queue:
			m.pending.Add(-1)
			rest = append(rest, req)
			continue
		default:
		}
		break
	}
	if len(rest) > 0 {
		if m.flushOnQuit() {
			m.apply(rest)
		} else {
			for _, r := range rest {
				r.errc <- ErrModelClosed
			}
		}
	}
	if m.flushOnQuit() {
		m.checkpointIfDirty()
	}
	if wlog := m.wlog.Load(); wlog != nil {
		if err := wlog.Close(); err != nil {
			m.cfg.Logf("parsvd-serve: model %s: closing wal: %v", m.name, err)
		}
	}
	if err := m.svd.Close(); err != nil {
		m.cfg.Logf("parsvd-serve: model %s: closing engine: %v", m.name, err)
	}
}

// shutdown stops the model. flush decides the fate of queued pushes:
// graceful server shutdown applies them and writes a final checkpoint;
// model deletion refuses them. Idempotent; returns once the ingest loop
// has exited.
func (m *model) shutdown(flush bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	m.flush = flush
	m.mu.Unlock()
	close(m.quit)
	<-m.done
}

func (m *model) flushOnQuit() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.flush
}

// lastIngestError returns the most recent view-publish fault, "" if none.
func (m *model) lastIngestError() string {
	if p := m.ingestErr.Load(); p != nil {
		return *p
	}
	return ""
}

// health assembles the durability snapshot /healthz reports: how old the
// un-checkpointed state is (the data-at-risk window for checkpoint-only
// deployments) and how deep the WAL is (the replay work — and, under lazy
// fsync policies, the exposure — a crash right now would incur).
func (m *model) health() ModelHealth {
	h := ModelHealth{
		Name:            m.name,
		ReplayedOnBoot:  m.replayedOnBoot,
		RecoverySeconds: m.recoverySeconds,
	}
	h.Shard, h.Absorbed = shardLabel(m.statsSnapshot())
	if since := m.dirtySince.Load(); since != 0 {
		h.Dirty = true
		h.DirtyAgeSeconds = time.Since(time.Unix(0, since)).Seconds()
	}
	if wlog := m.wlog.Load(); wlog != nil {
		h.WAL = true
		h.WALRecords, h.WALBytes = wlog.Depth()
	}
	return h
}

// shardLabel condenses a model's provenance for /healthz and /metrics:
// "i/n" for a shard-local fit, "merged" once other shards have been
// absorbed, "" for a plain whole-stream model. Absorbed is the size of
// the absorbed set either way.
func shardLabel(st parsvd.Stats) (string, int) {
	switch {
	case !st.Shard.IsZero():
		return st.Shard.String(), st.Absorbed
	case st.Absorbed > 0:
		return "merged", st.Absorbed
	default:
		return "", 0
	}
}

// info assembles the API representation of the model.
func (m *model) info() ModelInfo {
	st := m.statsSnapshot()
	var version uint64
	if v := m.currentView(); v != nil {
		version = v.Version
	}
	return ModelInfo{
		Spec:       m.spec,
		Stats:      statsJSON(st),
		Version:    version,
		QueueDepth: int(m.pending.Load()),
		IngestErr:  m.lastIngestError(),
	}
}
