// Package parsvd is the public face of goparsvd, a Go reproduction of the
// PyParSVD library (Maulik & Mengaldo, "PyParSVD: A streaming, distributed
// and randomized singular-value-decomposition library", SC 2021). It
// computes the truncated SVD of a snapshot matrix that arrives batch by
// batch, optionally distributed across ranks and optionally with
// randomized linear algebra inside.
//
// One constructor is the only way in:
//
//	svd, err := parsvd.New(parsvd.WithModes(10), parsvd.WithForgetFactor(0.95))
//	if err != nil { ... }
//	res, err := svd.Fit(ctx, parsvd.FromMatrix(snapshots, 100))
//
// Every knob is a functional option and every misconfiguration is an
// error returned by New — nothing on the public path panics. The options
// map one-to-one onto the paper's symbols:
//
//   - WithModes(k) is K, the truncation rank: the number of left singular
//     vectors (POD modes) retained by every update (paper §3.1).
//   - WithForgetFactor(ff) is ff ∈ (0, 1] of Algorithm 1 (Levy &
//     Lindenbaum), down-weighting past batches; 1.0 reproduces the
//     one-shot SVD, the paper's experiments use 0.95.
//   - WithLowRank(...) turns on the paper's §3.3 randomization: every
//     dense SVD in the pipeline is replaced by the Halko–Martinsson–Tropp
//     randomized SVD. The optional RLA argument sets the oversampling p,
//     the power-iteration count q and the sketch seed.
//   - WithInitRank(r1) is the APMOS gather truncation r1 used by the
//     distributed initialization (paper default 50).
//   - WithBackend selects the execution mode: Serial is ParSVD_Serial,
//     Parallel is ParSVD_Parallel over in-process goroutine ranks, and
//     Distributed runs ParSVD_Parallel with one OS process per rank over
//     loopback TCP — a persistent worker fleet fed real snapshot data
//     over the wire, interchangeable with the other two backends.
//   - WithRanks(n) is the MPI world size for the non-serial backends.
//
// Data enters through the Source abstraction — an in-memory matrix
// (FromMatrix), a batch-generator function (FromBatches), a self-
// describing NetCDF-style container file (FromNetCDF), or a deterministic
// benchmark workload (FromWorkload) — via the context-aware Fit loop, or
// incrementally through Push. Results carry the global modes, the
// spectrum and the iteration counters regardless of backend, and Save /
// Load round-trip the full streaming state for checkpoint/restart.
package parsvd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
)

// Result is the outcome of a decomposition, identical in shape across
// backends.
//
// Aliasing: every reference field of a Result returned by SVD.Result (or
// Fit) is a deep copy owned by the caller — the engine-internal storage
// that backs the decomposition is recycled between streaming updates and
// is never exposed here. Mutating a Result therefore cannot corrupt the
// SVD, and a later Push cannot change a Result already handed out. To fan
// one Result out to multiple goroutines that may each mutate it, give
// each its own Clone.
type Result struct {
	// Modes is the full M×K matrix of truncated left singular vectors
	// (the POD modes), assembled across ranks for the parallel backend.
	// It is nil for the Distributed backend, whose modes live
	// row-distributed in worker processes; ModesSHA256 fingerprints them
	// instead, and Save gathers them into a checkpoint.
	Modes *Matrix
	// Singular holds the truncated singular values in descending order.
	Singular []float64
	// Iterations is the number of streaming updates performed (the
	// Initialize batch is not counted).
	Iterations int
	// Snapshots is the total number of ingested snapshot columns.
	Snapshots int
	// ModesSHA256 fingerprints the gathered mode matrix of a Distributed
	// run (dims plus row-major IEEE-754 bits), so runs can be compared
	// bit-for-bit across transports without shipping the matrix.
	ModesSHA256 string
}

// Clone deep-copies the Result: the copy shares no storage with the
// original, so one Result can be handed to arbitrarily many concurrent
// readers (or mutators) as long as each works on its own Clone. A nil
// receiver clones to nil.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Singular = append([]float64(nil), r.Singular...)
	if r.Modes != nil {
		out.Modes = r.Modes.Clone()
	}
	return &out
}

// ErrEngineFailed marks an SVD whose backend is permanently failed: a
// rank panicked or a collective aborted, and the streaming state can no
// longer be trusted or advanced. Every later Push/Result reports an error
// wrapping this sentinel; the only recovery is a new SVD (or Load from a
// checkpoint). Servers use it to distinguish a dead engine (their fault,
// HTTP 5xx) from a bad request.
var ErrEngineFailed = errors.New("parsvd: engine permanently failed")

// ShardInfo is the public face of a shard provenance mark: this model
// holds shard Index of Count disjoint snapshot subsets of one logical
// stream (WithShard). The zero value means "whole stream / unmarked".
type ShardInfo struct {
	Index int
	Count int
}

// IsZero reports an absent provenance mark.
func (si ShardInfo) IsZero() bool { return si == ShardInfo{} }

// String renders "index/count" ("" for the zero mark).
func (si ShardInfo) String() string {
	if si.IsZero() {
		return ""
	}
	return fmt.Sprintf("%d/%d", si.Index, si.Count)
}

func shardInfo(id core.ShardID) ShardInfo {
	return ShardInfo{Index: id.Index, Count: id.Count}
}

// Configuration echoes the options an SVD was built with — including one
// rebuilt by Load, whose options come from the checkpoint. It exists so
// callers wrapping SVDs (the serving layer) can report or persist the
// effective configuration without holding on to the original Option list.
type Configuration struct {
	Modes        int
	ForgetFactor float64
	Backend      Backend
	Ranks        int
	InitRank     int
	LowRank      bool
	// RLA is the sketch tuning; zero when LowRank is false or the
	// defaults are in effect.
	RLA RLA
	// Shards is the WithShards map-reduce width (0 or 1 for an
	// unsharded fit).
	Shards int
	// Shard is the WithShard provenance mark (zero for a whole-stream
	// model, and for a merged model — a merge retires the mark into the
	// absorbed set). WriteCheckpoint stamps it into the checkpoints it
	// produces, so a published view exported over HTTP carries the same
	// provenance a Save would.
	Shard ShardInfo
	// Sketched reports WithSketchedPush; Sketch echoes its effective
	// configuration (MaxRank defaulted), zero when Sketched is false.
	Sketched bool
	Sketch   SketchConfig
}

// Configuration reports the effective options of this SVD. A merge can
// change the backend (a merged model always continues serially), so the
// report reflects the SVD's current state, not just its construction.
func (s *SVD) Configuration() Configuration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Configuration{
		Modes:        s.cfg.k,
		ForgetFactor: s.cfg.ff,
		Backend:      s.cfg.backend,
		Ranks:        s.cfg.ranks,
		InitRank:     s.cfg.r1,
		LowRank:      s.cfg.lowRank,
		RLA:          s.cfg.rlaOpts,
		Shards:       s.cfg.shards,
		Shard:        shardInfo(s.cfg.shard),
		Sketched:     s.cfg.sketchOn,
		Sketch:       s.cfg.sketch,
	}
}

// Stats is the cheap introspection surface of an SVD: configuration,
// ingest counters and inter-rank traffic. Reading it never gathers modes
// or runs a collective, so it is safe to poll at serving frequency.
type Stats struct {
	// Backend and K echo the configuration (WithBackend, WithModes).
	Backend Backend
	K       int
	// Ranks is the world size (1 for the serial backend).
	Ranks int
	// Rows is the snapshot row count M, 0 until the first batch arrives.
	Rows int
	// Snapshots counts the ingested snapshot columns.
	Snapshots int
	// Updates counts the state-changing updates applied (the Initialize
	// batch included): a monotone version counter for "has anything
	// changed since I last looked".
	Updates int64
	// Messages and Bytes summarize the inter-rank traffic of a parallel
	// or distributed run; they stay zero for the serial backend.
	Messages int64
	Bytes    int64
	// PushedBytes counts the logical float64 payload of every ingested
	// batch (8·M·B per push) on every backend, so serial, parallel and
	// distributed models report comparable ingest volume. WireBytes
	// counts what actually crossed into the engine: equal to PushedBytes
	// for raw pushes, the compressed factor-pair size for sketched ones
	// (WithSketchedPush / PushSketch) — the gap between the two is the
	// measured wire saving. SketchedPushes counts the pushes that
	// traveled compressed.
	PushedBytes    int64
	WireBytes      int64
	SketchedPushes int64
	// Shard is the WithShard provenance mark: this model is one
	// shard-local fit of a partitioned stream. Zero for whole-stream
	// models and for merged models (the mark retires into the absorbed
	// set on the first merge).
	Shard ShardInfo
	// Absorbed counts the shard marks this model has absorbed through
	// merges: > 0 identifies a merged (reduced) model and says how many
	// marked shards it is the union of.
	Absorbed int
}

// engine is the backend-side contract behind SVD. Serial and Parallel
// hold their streaming state in this process; Distributed holds it in a
// persistent worker fleet behind the same five operations.
//
// deadlineAware is the optional extension Fit uses to map a context
// deadline onto an engine whose operations block on external processes.
type deadlineAware interface {
	setDeadline(t time.Time)
}
type engine interface {
	// push ingests one batch in factor form x·s: s nil means x is the raw
	// M×B batch, otherwise x is a sketch's M×L basis and s its L×B
	// projection. The facade has validated both against the rows seen.
	push(x, s *mat.Dense) error
	result() (*Result, error)
	// save serializes the engine state; a non-nil res is a result just
	// produced by result(), letting the parallel backend skip a second
	// gather collective.
	save(w io.Writer, res *Result) error
	stats() Stats
	close() error
}

// SVD is a handle on one streaming decomposition. Construct it with New,
// feed it through Fit or Push, read it through Result, persist it with
// Save. Every backend — Serial, Parallel and Distributed — is driven
// through the same surface; a Distributed SVD lazily spawns its worker
// fleet on the first batch and keeps it alive until Close.
//
// Methods on SVD are safe for use from a single goroutine; concurrent
// calls are serialized internally.
type SVD struct {
	cfg config

	mu     sync.Mutex
	eng    engine
	closed bool

	// Ingest counters surfaced by Stats without touching the engine.
	rows      int
	snapshots int
	updates   int64

	// Traffic counters maintained here for every backend (the engines
	// only know their own collectives): logical bytes pushed, bytes that
	// actually crossed into the engine, and how many pushes traveled as
	// compressed sketches.
	pushedBytes    int64
	wireBytes      int64
	sketchedPushes int64

	// Merge provenance: the shard marks absorbed so far (Merge refuses
	// the same shard twice) and the accumulated Iwen–Ong truncation
	// bound of every merge applied to this model.
	absorbed   []core.ShardID
	mergeBound float64
}

// New builds a decomposition from functional options. The zero
// configuration (no options) is a serial engine with K = 10 modes and
// forget factor 1.0. Invalid or contradictory options are reported as an
// error; New never panics.
func New(opts ...Option) (*SVD, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("parsvd: nil Option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &SVD{cfg: cfg}
	if cfg.shards > 1 {
		// A sharded fit deals batches across independent engines of the
		// configured backend and merges their results.
		s.eng = newShardedEngine(cfg)
		return s, nil
	}
	switch cfg.backend {
	case Serial:
		s.eng = newSerialEngine(cfg.coreOptions())
	case Parallel:
		s.eng = newParallelEngine(cfg.coreOptions(), cfg.ranks)
	case Distributed:
		// The worker fleet spawns lazily on the first batch.
		s.eng = newDistEngine(cfg)
	}
	return s, nil
}

// Backend reports the current execution mode: the one this SVD was built
// with, or Serial after a Merge (a merged model continues serially).
func (s *SVD) Backend() Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.backend
}

// Ranks reports the world size (1 for the serial backend).
func (s *SVD) Ranks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.ranks
}

// Fit drains src through the decomposition: the first batch seeds it
// (Algorithm 1's initialization), every further batch is a streaming
// update. ctx is checked between batches; cancellation returns ctx.Err()
// with the state as of the last completed batch intact. If src implements
// io.Closer it is closed before Fit returns. When a checkpoint writer was
// configured (WithCheckpoint), the final state is saved to it after the
// source drains.
//
// Every backend accepts every Source: the Distributed backend scatters
// each batch's rows across its worker fleet over the wire, exactly as the
// Parallel backend scatters them across its rank goroutines.
func (s *SVD) Fit(ctx context.Context, src Source) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		return nil, errors.New("parsvd: Fit with nil Source")
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("parsvd: Fit on closed SVD")
	}
	// A context deadline must bound the Distributed backend's wire
	// operations, not just the between-batch checks below: map it onto
	// the engine's per-operation cap for the duration of this Fit.
	if dl, ok := ctx.Deadline(); ok {
		if da, ok := s.eng.(deadlineAware); ok {
			da.setDeadline(dl)
			defer da.setDeadline(time.Time{})
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsvd: source: %w", err)
		}
		if err := s.pushLocked(b, nil); err != nil {
			// A push that failed because the context expired mid-wire
			// reports the context error, like any other ctx-aware API.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	res, err := s.eng.result()
	if err != nil {
		// A gather refused because the deadline expired after the last
		// batch reports the context error, not a backend detail.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	if s.cfg.checkpoint != nil {
		if err := s.saveLocked(s.cfg.checkpoint, res); err != nil {
			return nil, fmt.Errorf("parsvd: writing checkpoint: %w", err)
		}
	}
	return res, nil
}

// Push ingests one snapshot batch (M×B): the first call seeds the
// decomposition, later calls stream. It is the incremental alternative to
// Fit for callers that produce batches themselves. On the Distributed
// backend the first Push spawns the persistent worker fleet and every
// batch is row-scattered to it over the wire.
func (s *SVD) Push(batch *Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("parsvd: Push on closed SVD")
	}
	return s.pushLocked(batch, nil)
}

// pushLocked forwards a raw batch x (sk nil) or a sketch factor pair
// (Q = x, S = sk) to the engine and maintains the ingest counters behind
// Stats. With WithSketchedPush a raw batch is compressed into its factor
// pair first and only the pair crosses into the engine; batches the
// sketch cannot compress stay raw. Called with s.mu held.
func (s *SVD) pushLocked(x, sk *Matrix) error {
	if err := checkBatch(x, sk, s.rows); err != nil {
		return err
	}
	if sk == nil && s.cfg.sketchOn {
		q, qs, err := sketchBatch(x, s.cfg.sketch, s.cfg.rlaOpts)
		if err != nil {
			return err
		}
		if q != nil {
			// The sketch of an extreme batch can overflow: its pair is
			// checked like any other.
			if err := checkBatch(q, qs, s.rows); err != nil {
				return err
			}
			x, sk = q, qs
		}
	}
	if err := s.eng.push(x, sk); err != nil {
		return err
	}
	// A raw batch crosses once. Of a pair, in-process engines receive one
	// copy; the distributed scatter ships each rank its row block of Q
	// and a replica of S.
	rows, cols := x.Rows(), x.Cols()
	wire := 8 * int64(rows*cols)
	if sk != nil {
		l := cols
		cols = sk.Cols()
		replicas := 1
		if s.cfg.backend == Distributed {
			replicas = s.cfg.ranks
		}
		wire = 8 * int64(rows*l+l*cols*replicas)
		s.sketchedPushes++
	}
	s.wireBytes += wire
	s.pushedBytes += 8 * int64(rows*cols)
	if s.rows == 0 {
		s.rows = rows
	}
	s.snapshots += cols
	s.updates++
	return nil
}

// Result snapshots the current decomposition: modes, spectrum, counters.
// At least one batch must have been ingested. The returned matrices are
// copies owned by the caller.
func (s *SVD) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("parsvd: Result on closed SVD")
	}
	return s.eng.result()
}

// Stats reports the SVD's configuration, ingest counters and inter-rank
// traffic. Unlike Result it never gathers modes, so it is cheap enough to
// poll per request when the SVD backs a service.
func (s *SVD) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Backend:   s.cfg.backend,
		K:         s.cfg.k,
		Ranks:     s.cfg.ranks,
		Rows:      s.rows,
		Snapshots: s.snapshots,
		Updates:   s.updates,
		Shard:     shardInfo(s.cfg.shard),
		Absorbed:  len(s.absorbed),
	}
	st.PushedBytes = s.pushedBytes
	st.WireBytes = s.wireBytes
	st.SketchedPushes = s.sketchedPushes
	if s.eng != nil {
		es := s.eng.stats()
		st.Messages, st.Bytes = es.Messages, es.Bytes
	}
	return st
}

// Save serializes the full streaming state — options, global modes,
// singular values, counters — in the goparsvd checkpoint format readable
// by Load. For the parallel and distributed backends the per-rank slices
// are gathered first (for Distributed, rank 0 of the worker fleet
// assembles the checkpoint and ships it back over the wire), so the
// checkpoint always holds the global state and can be resumed serially.
func (s *SVD) Save(w io.Writer) error {
	if w == nil {
		return errors.New("parsvd: Save with nil writer")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("parsvd: Save on closed SVD")
	}
	return s.saveLocked(w, nil)
}

// saveLocked writes the engine checkpoint, stamping the WithShard
// provenance mark into it when one is configured. Called with s.mu held.
// The engines themselves always emit unmarked state (the version-1
// layout), so the stamp is applied by re-encoding through the State
// form; checkpoints are small relative to a fit, the copy is cheap.
func (s *SVD) saveLocked(w io.Writer, res *Result) error {
	if s.cfg.shard.IsZero() {
		return s.eng.save(w, res)
	}
	var buf bytes.Buffer
	if err := s.eng.save(&buf, res); err != nil {
		return err
	}
	st, err := core.ReadState(&buf)
	if err != nil {
		return fmt.Errorf("parsvd: stamping shard provenance: %w", err)
	}
	st.Shard = s.cfg.shard
	return core.WriteState(w, st)
}

// Close releases backend resources (the parallel backend's rank
// goroutines). The SVD is unusable afterwards. Close is idempotent and
// optional for the serial backend.
func (s *SVD) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.eng != nil {
		return s.eng.close()
	}
	return nil
}
