// Package server turns the parsvd facade into a long-running
// SVD-as-a-service: a registry of named streaming decompositions behind
// an HTTP JSON API, with micro-batched ingest, snapshot-isolated reads
// and per-model checkpoint persistence.
//
// Architecture, per model:
//
//	HTTP pushers ──► bounded queue ──► single-writer ingest loop ──► parsvd.SVD
//	                     (429 when full)   (coalesces queued pushes        │
//	                                        into one stacked Push)         ▼
//	HTTP readers ◄──────────── atomic View pointer ◄──────────── copy-on-publish
//
// Writers never block readers and readers never block writers: every
// applied micro-batch publishes a fresh deep-copied View (spectrum +
// modes + stats), and queries serve whatever View is current. The PR 1
// engines recycle their mode storage between updates, which is exactly
// why reads go through Views and never through the live engine.
package server

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/wal"
)

// Config tunes a Server. The zero value is serviceable: 64-deep queues,
// 16-way coalescing, 32 MiB bodies, no persistence.
type Config struct {
	// QueueDepth bounds each model's ingest queue; a full queue rejects
	// pushes with 429 (backpressure) instead of buffering without bound.
	// Default 64.
	QueueDepth int
	// MaxCoalesce caps how many queued pushes the ingest loop folds into
	// one engine update. Default 16. Each micro-batch is one streaming
	// update, so with a forget factor < 1 the down-weighting applies per
	// micro-batch (queue timing decides the boundaries); set 1 to force
	// strictly per-push updates at the cost of coalescing throughput.
	MaxCoalesce int
	// CheckpointDir, when set, enables persistence: every model
	// periodically saves to <dir>/<name>.ckpt, its creation spec is
	// written durably to <dir>/<name>.spec.json, applied updates
	// are logged to <dir>/<name>.wal/ before they are acked, and every
	// model found at construction (checkpoint, spec or WAL) is restored
	// as a live model — replaying the WAL on top of the newest
	// checkpoint, so no acked push is lost. The directory is created if
	// missing.
	CheckpointDir string
	// CheckpointInterval is the save cadence. Default 30s. Every
	// successful checkpoint truncates the model's WAL (the records it
	// covers rotate out), so the interval also bounds recovery time and
	// WAL disk.
	CheckpointInterval time.Duration
	// Fsync is the WAL durability policy: FsyncAlways (the default — an
	// acked push survives kill -9 and power loss), FsyncInterval (acked
	// pushes survive a process crash; up to FsyncInterval of them can be
	// lost to a machine failure) or FsyncNever (the OS page cache
	// decides). See the FsyncPolicy docs for what a 200 means under each.
	Fsync FsyncPolicy
	// FsyncInterval is the background flush cadence under FsyncInterval.
	// Default 100ms.
	FsyncInterval time.Duration
	// DisableWAL turns the write-ahead log off, reverting to
	// checkpoint-only persistence: every acked push since the last
	// periodic checkpoint is lost on a crash. /healthz reports that
	// exposure as the per-model dirty age.
	DisableWAL bool
	// MaxBodyBytes bounds request bodies (413 beyond). Default 32 MiB.
	MaxBodyBytes int64
	// Logf receives operational log lines. Default log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxCoalesce <= 0 {
		c.MaxCoalesce = 16
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Fsync == "" {
		c.Fsync = FsyncAlways
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server hosts the model registry and the HTTP API. Construct with New,
// mount Handler on an http.Server, and Close on the way out (after the
// HTTP listener has drained) to flush queues and write final checkpoints.
type Server struct {
	cfg Config
	reg *registry
	mux *http.ServeMux

	requests atomic.Int64 // total HTTP requests, for /metrics

	// stateMu orders model creation against Close: startModel holds the
	// read side across the closed-check + registry add, so once Close has
	// set closed under the write side, no new ingest loop can slip in
	// after the final drain.
	stateMu sync.RWMutex
	closed  bool
}

// New builds a Server and, when cfg.CheckpointDir is set, restores every
// persisted model in it (restore-on-boot): the newest checkpoint is
// loaded, then the model's write-ahead log is replayed on top, so every
// acked push survives a crash (under FsyncAlways; see FsyncPolicy for the
// lazier trade-offs).
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if _, err := cfg.Fsync.syncPolicy(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: newRegistry(), mux: http.NewServeMux()}
	s.routes()
	if cfg.CheckpointDir != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// walEnabled reports whether models get a write-ahead log.
func (s *Server) walEnabled() bool {
	return s.cfg.CheckpointDir != "" && !s.cfg.DisableWAL
}

// CreateModel registers and starts a model from a spec: the programmatic
// twin of POST /v1/models, used by the HTTP handler and embedding callers
// alike. With persistence on, the spec is written durably and the model's
// write-ahead log is opened before the create returns, so the model —
// including one that crashes before its first checkpoint — survives a
// reboot.
func (s *Server) CreateModel(spec ModelSpec) (ModelInfo, error) {
	opts, err := spec.options()
	if err != nil {
		return ModelInfo{}, err
	}
	svd, err := parsvd.New(opts...)
	if err != nil {
		return ModelInfo{}, err
	}
	return s.startModel(newModel(spec, svd, s.cfg), true)
}

// startModel mounts a model (fresh or restored) into the registry and
// starts its ingest loop. persist asks for the durability files (spec +
// WAL) to be created; restore-on-boot passes false, having already opened
// them and attached the WAL to the model.
func (s *Server) startModel(m *model, persist bool) (ModelInfo, error) {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		m.release()
		return ModelInfo{}, ErrServerClosed
	}
	if err := s.reg.add(m); err != nil {
		m.release()
		return ModelInfo{}, err
	}
	// The registry add reserved the name, so the spec file and WAL
	// directory are exclusively ours — a concurrent create of the same
	// name lost above and cannot clobber them.
	if persist && s.cfg.CheckpointDir != "" {
		if err := s.initDurability(m); err != nil {
			s.reg.remove(m.name)
			m.release()
			return ModelInfo{}, err
		}
	}
	m.run()
	return m.info(), nil
}

// initDurability writes the creation spec durably and opens the model's
// write-ahead log (unless WAL is disabled).
func (s *Server) initDurability(m *model) error {
	if err := writeSpecFile(s.cfg.CheckpointDir, m.spec); err != nil {
		return err
	}
	if !s.walEnabled() {
		return nil
	}
	wlog, err := openModelWAL(s.cfg, m.name)
	if err != nil {
		os.Remove(specFilePath(s.cfg.CheckpointDir, m.name))
		return err
	}
	m.wlog.Store(wlog)
	return nil
}

// release frees the resources of a model that never started.
func (m *model) release() {
	if wlog := m.wlog.Load(); wlog != nil {
		wlog.Close()
	}
	m.svd.Close()
}

// restore brings every persisted model in CheckpointDir back to life:
// the newest checkpoint (when present) is the base, the write-ahead log
// is replayed on top of it — the checkpoint's Updates counter is the
// replay cursor, records at or below it are skipped — and a model with a
// spec but no checkpoint yet is rebuilt from scratch and re-fed from the
// log (a distributed model's replay re-spawns and re-feeds its worker
// fleet). Torn WAL tails were already truncated by the open; they never
// fail boot. Unrepairable damage — a corrupt checkpoint with no full
// log to rebuild from, mid-log corruption, a sequence gap — quarantines
// that one model (everything renamed .bad, like .ckpt.bad always worked)
// instead of taking the whole server down.
func (s *Server) restore() error {
	dir := s.cfg.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	names := make(map[string]bool)
	note := func(raw, suffix string) {
		name := strings.TrimSuffix(raw, suffix)
		if !validName(name) {
			s.cfg.Logf("parsvd-serve: skipping persisted state with invalid model name %q", raw)
			return
		}
		names[name] = true
	}
	for _, e := range entries {
		switch {
		case e.IsDir() && strings.HasSuffix(e.Name(), ".wal"):
			note(e.Name(), ".wal")
		case !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt"):
			note(e.Name(), ".ckpt")
		case !e.IsDir() && strings.HasSuffix(e.Name(), ".spec.json"):
			note(e.Name(), ".spec.json")
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if err := s.restoreModel(name); err != nil {
			return err
		}
	}
	return nil
}

// restoreModel recovers one model. Only infrastructure failures (the
// registry refusing the add) are returned; damaged state quarantines the
// model and reports nil so the other models still boot.
func (s *Server) restoreModel(name string) error {
	dir := s.cfg.CheckpointDir
	start := time.Now()
	ckptPath := filepath.Join(dir, name+".ckpt")

	quarantineModel := func(reason string, err error) {
		s.cfg.Logf("parsvd-serve: SKIPPING model %s: %s: %v", name, reason, err)
		quarantine(s.cfg.Logf, ckptPath)
		quarantine(s.cfg.Logf, specFilePath(dir, name))
		quarantine(s.cfg.Logf, walDirPath(dir, name))
	}

	spec, specErr := readSpecFile(dir, name)
	haveSpec := specErr == nil
	if specErr != nil && !errors.Is(specErr, fs.ErrNotExist) {
		quarantineModel("unreadable spec", specErr)
		return nil
	}

	// The newest checkpoint is the replay base. An unrestorable one is
	// quarantined; when the WAL still reaches back to the first record
	// the model is rebuilt from its spec and fully re-fed below —
	// otherwise the replay's contiguity anchor reports the gap and the
	// rest of the model is quarantined too.
	var svd *parsvd.SVD
	if _, err := os.Stat(ckptPath); err == nil {
		svd, err = loadCheckpoint(ckptPath)
		if err != nil {
			s.cfg.Logf("parsvd-serve: SKIPPING unrestorable checkpoint %s: %v", ckptPath, err)
			quarantine(s.cfg.Logf, ckptPath)
			svd = nil
		}
	}
	switch {
	case svd != nil:
		// Checkpoints always resume on the serial backend (parsvd.Load
		// semantics); the spec echoes the configuration actually serving.
		spec = specFromConfiguration(name, svd.Configuration())
	case haveSpec:
		opts, err := spec.options()
		if err == nil {
			svd, err = parsvd.New(opts...)
		}
		if err != nil {
			quarantineModel("rebuilding from spec", err)
			return nil
		}
	default:
		quarantineModel("no checkpoint or spec to restore from", errors.New("orphaned state"))
		return nil
	}

	u0 := uint64(svd.Stats().Updates)
	var wlog *wal.Log
	var replayed uint64
	if s.walEnabled() {
		var err error
		wlog, err = openModelWAL(s.cfg, name)
		if err != nil {
			svd.Close()
			quarantineModel("write-ahead log unrecoverable", err)
			return nil
		}
		expected := u0
		replayErr := wlog.Replay(u0, func(seq uint64, payload []byte) error {
			if seq != expected+1 {
				return fmt.Errorf("wal resumes at seq %d but the checkpoint covers through %d (gap)", seq, expected)
			}
			expected = seq
			// Each record replays through the same applyTo the ingest
			// loop used: the same operations, in the same order, so the
			// rebuilt state matches the acked one bit for bit.
			u, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			return u.applyTo(svd)
		})
		if replayErr != nil {
			wlog.Close()
			svd.Close()
			quarantineModel("replaying write-ahead log", replayErr)
			return nil
		}
		replayed = wlog.Counters().Replayed
	}

	m := newModel(spec, svd, s.cfg)
	if wlog != nil {
		m.wlog.Store(wlog)
	}
	m.replayedOnBoot = replayed
	m.recoverySeconds = time.Since(start).Seconds()
	if _, err := s.startModel(m, false); err != nil {
		return fmt.Errorf("server: restoring %s: %w", name, err)
	}
	st := svd.Stats()
	s.cfg.Logf("parsvd-serve: restored model %s (K=%d, %d snapshots, %d wal records replayed, %.3fs)",
		name, st.K, st.Snapshots, replayed, m.recoverySeconds)
	return nil
}

func loadCheckpoint(path string) (*parsvd.SVD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parsvd.Load(f)
}

// specFromConfiguration rebuilds the API spec of a restored model from
// the facade's configuration echo, so GET /v1/models keeps reporting the
// forget factor, init rank and randomization settings across restarts.
func specFromConfiguration(name string, c parsvd.Configuration) ModelSpec {
	spec := ModelSpec{
		Name:         name,
		Modes:        c.Modes,
		ForgetFactor: c.ForgetFactor,
		Backend:      c.Backend.String(),
		InitRank:     c.InitRank,
	}
	if c.LowRank {
		spec.LowRank = &LowRankSpec{
			Oversample: c.RLA.Oversample,
			PowerIters: c.RLA.PowerIters,
			Seed:       c.RLA.Seed,
		}
	}
	if !c.Shard.IsZero() {
		spec.Shard = &ShardSpec{Index: c.Shard.Index, Count: c.Shard.Count}
	}
	return spec
}

// deleteModel unregisters a model, refuses its queued pushes and removes
// its persisted state (checkpoint, spec, write-ahead log) so it does not
// resurrect on the next boot.
func (s *Server) deleteModel(name string) error {
	m, err := s.reg.remove(name)
	if err != nil {
		return err
	}
	m.shutdown(false)
	if s.cfg.CheckpointDir != "" {
		remove := func(what string, rm func() error) {
			if err := rm(); err != nil && !os.IsNotExist(err) {
				s.cfg.Logf("parsvd-serve: removing %s of deleted model %s: %v", what, name, err)
			}
		}
		remove("checkpoint", func() error { return os.Remove(m.checkpointPath()) })
		remove("spec", func() error { return os.Remove(specFilePath(s.cfg.CheckpointDir, name)) })
		remove("wal", func() error { return os.RemoveAll(walDirPath(s.cfg.CheckpointDir, name)) })
	}
	return nil
}

// Handler returns the HTTP API. Mount it on any http.Server; the handler
// enforces MaxBodyBytes and counts requests for /metrics.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Close is the graceful shutdown: every model drains and applies its
// queued pushes, writes a final checkpoint (when persistence is on) and
// releases its engine. Call it after the HTTP listener has stopped
// accepting, so in-flight handlers have delivered their pushes to the
// queues being flushed. Idempotent; model creation after (or racing)
// Close is refused with ErrServerClosed, so no ingest loop outlives it.
func (s *Server) Close() error {
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return nil
	}
	s.closed = true
	s.stateMu.Unlock()
	var wg sync.WaitGroup
	for _, m := range s.reg.list() {
		wg.Add(1)
		go func(m *model) {
			defer wg.Done()
			m.shutdown(true)
		}(m)
	}
	wg.Wait()
	return nil
}
