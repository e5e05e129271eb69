package server

import (
	"bytes"
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
// and load the current View; every SVD method — Push, Merge, Result,
// Save, Close, down to the Configuration and MergeBound getters — is
// called from the ingest goroutine alone (or before it starts).
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

// update is one ingest operation: the unit the queue carries, the
// engine applies and the write-ahead log records. It is exactly one of
//
//   - a snapshot batch: x (s and ckpt nil);
//   - a sketched push: the compressed factor pair Q = x, S = s, whose
//     product stands in for the batch it was sketched from;
//   - a merge: ckpt, a checkpoint to absorb through SVD.Merge.
//
// All three ride the same single-writer queue, so the WAL ordering and
// durability barrier apply to each alike.
type update struct {
	x, s *parsvd.Matrix
	ckpt []byte
}

// stackable reports whether u is a raw batch: the only kind the ingest
// loop stacks with its queue neighbours. A sketch or a merge is one
// engine operation with its own WAL record, applied exactly at its queue
// position. (Stacking sketches with raw batches would force multiplying
// them out on the ingest loop and log the expanded rows, forfeiting the
// compression the sender paid for.)
func (u update) stackable() bool { return u.s == nil && u.ckpt == nil }

// applyTo runs u through the engine. Ingest and boot replay both apply
// updates here, so a replayed record takes the same path as the original.
// Every path validates fully before touching the engine: a refused
// update leaves the model as it was.
func (u update) applyTo(svd *parsvd.SVD) error {
	switch {
	case u.ckpt != nil:
		return svd.Merge(bytes.NewReader(u.ckpt))
	case u.s != nil:
		return svd.PushSketch(u.x, u.s)
	}
	return svd.Push(u.x)
}

// pushReq is one queued update and its reply. errc is buffered so the
// ingest loop can always deliver the outcome, even when the submitting
// handler has already given up (context canceled → 499) and gone away.
// view is the View the update published; the ingest loop sets it before
// the nil error on errc, so a handler reads it after the receive.
type pushReq struct {
	update
	errc chan error
	view *View
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
	if m.base.Snapshots > 0 {
		if v, err := snapshotView(svd); err == nil {
			m.view.Store(v)
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
	if !first.stackable() {
		return reqs
	}
	for len(reqs) < m.cfg.MaxCoalesce {
		select {
		case r := <-m.queue:
			m.pending.Add(-1)
			reqs = append(reqs, r)
			if !r.stackable() {
				// A sketch or merge ends the micro-batch; apply handles
				// it as its own update after the batches queued ahead.
				return reqs
			}
		default:
			return reqs
		}
	}
	return reqs
}

// apply turns queued requests into updates, applies each and fans the
// outcome back to its submitters. Consecutive raw batches with equal row
// counts form one run and are HStacked into a single update — arrival
// order is preserved, which is what makes N coalesced single-snapshot
// pushes bit-identical to one stacked push. A run with a mismatched row
// count (only possible before the first batch pins M, or from a caller
// bug) simply starts its own run and lets Push report the dimension
// error. Sketches and merges are updates of their own.
//
// Each update is applied, then logged, then published. The durability
// barrier: the applied update is in the WAL (and, under FsyncAlways,
// fsynced) before any submitter sees its ack. A stacked run is recorded
// exactly as the engine consumed it, so replay reproduces the same
// micro-batch boundaries — and with them the same forget-factor
// weighting — bit for bit; a crash recovers to exactly the state before
// an update (record not yet durable) or after it, never in between.
//
// Only server-side faults (the ones httpStatus maps to 5xx: a failed
// engine, a failed WAL append) are recorded in the model health. A
// refused update — a wrong-row or non-finite batch, an incompatible
// checkpoint — leaves the model untouched and healthy.
func (m *model) apply(reqs []*pushReq) {
	for start := 0; start < len(reqs); {
		u, end := reqs[start].update, start+1
		if u.stackable() {
			for end < len(reqs) && reqs[end].stackable() && reqs[end].x.Rows() == u.x.Rows() {
				end++
			}
			if end-start > 1 {
				batches := make([]*parsvd.Matrix, 0, end-start)
				for _, r := range reqs[start:end] {
					batches = append(batches, r.x)
				}
				u.x = parsvd.HStack(batches...)
			}
		}
		var v *View
		err := u.applyTo(m.svd)
		if err == nil {
			err = m.logDurable(u.encodeRecord())
		}
		if err == nil {
			// A publish failure (poisoned parallel world during the
			// gather) counts against the submitters too: their data is
			// in an engine that can no longer serve it.
			v, err = m.publish()
		} else if httpStatus(err) >= 500 {
			msg := err.Error()
			m.ingestErr.Store(&msg)
		}
		for _, r := range reqs[start:end] {
			r.view = v
			r.errc <- err
		}
		start = end
	}
}

// logDurable appends an applied update's record to the write-ahead log,
// keyed by the engine's post-apply Updates counter — the same counter a
// checkpoint carries, which is what lets replay-on-boot skip records a
// checkpoint already covers. Under FsyncAlways the record is on stable
// storage when this returns; under lazier policies the append is
// buffered and the ack's meaning weakens accordingly (Config docs).
//
// A failed append leaves the engine ahead of the log, so the submitters
// of this update get ErrNotDurable instead of an ack, and — because the
// log refuses non-contiguous sequence numbers — every later push fails
// the same way rather than silently widening the divergence: the model
// is effectively read-only until the operator fixes the disk.
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
func (m *model) publish() (*View, error) {
	v, err := snapshotView(m.svd)
	if err != nil {
		msg := err.Error()
		m.ingestErr.Store(&msg)
		m.cfg.Logf("parsvd-serve: model %s: publishing view: %v", m.name, err)
		return nil, err
	}
	m.view.Store(v)
	m.dirty = true
	m.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	m.ingestErr.Store(nil) // healthy again: the last fault is history
	return v, nil
}

// snapshotView copies out everything a reader may ask of the SVD — the
// decomposition, the stats, the configuration and the merge bound — so
// no handler ever calls into the live engine.
func snapshotView(svd *parsvd.SVD) (*View, error) {
	res, err := svd.Result()
	if err != nil {
		return nil, err
	}
	st := svd.Stats()
	return &View{
		Version:       uint64(st.Updates),
		Result:        res,
		Stats:         st,
		Configuration: svd.Configuration(),
		MergeBound:    svd.MergeBound(),
	}, nil
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

// lastIngestError returns the most recent server-side ingest fault (a
// failed engine, WAL append or view publish), "" if none.
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
