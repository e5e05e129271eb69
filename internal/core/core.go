// Package core is the public API of goparsvd: a Go reproduction of the
// PyParSVD library (Maulik & Mengaldo, SC 2021). It composes the three
// building blocks of the paper — the streaming SVD of Levy & Lindenbaum
// (internal/stream), the approximate partitioned method of snapshots
// (internal/apmos) with a distributed tall-skinny QR (internal/tsqr), and
// randomized linear algebra (internal/rla) — behind the same two-class
// factory the Python package exposes:
//
//   - Serial is ParSVD_Serial: single-process streaming truncated SVD.
//   - Parallel is ParSVD_Parallel: every rank holds a row block of the
//     snapshot matrix; initialization runs APMOS and each streaming update
//     calls internal/stream's one update with a distributed TSQR strategy
//     (the QR runs across ranks, the small SVD at the root).
//
// Both satisfy Decomposer, so analysis and post-processing code (package
// postproc) is agnostic to the execution mode, mirroring how PyParSVD's
// postprocessing module binds to ParSVD_Base.
package core

import (
	"fmt"

	"goparsvd/internal/apmos"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
	"goparsvd/internal/tsqr"
)

// Decomposer is the contract shared by the serial and parallel engines
// (the role ParSVD_Base plays in the Python package).
type Decomposer interface {
	// Initialize seeds the decomposition with the first snapshot batch.
	Initialize(a *mat.Dense) Decomposer
	// IncorporateData streams one more batch of snapshots.
	IncorporateData(a *mat.Dense) Decomposer
	// Modes returns the truncated left singular vectors held by this
	// process: the full M×K matrix for Serial, the local M_i×K slice for
	// Parallel.
	Modes() *mat.Dense
	// SingularValues returns the current truncated singular values.
	SingularValues() []float64
	// Iterations returns the number of streaming updates performed.
	Iterations() int
}

// Options configures either engine.
type Options struct {
	// K is the number of modes (truncated left singular vectors) retained.
	K int
	// ForgetFactor is Algorithm 1's ff ∈ (0, 1]; the paper's experiments
	// use 0.95, and 1.0 recovers the one-shot SVD.
	ForgetFactor float64
	// LowRank replaces every dense SVD in the pipeline with the
	// randomized variant (paper §3.3).
	LowRank bool
	// RLA tunes the randomized SVD; zero value means rla.DefaultOptions.
	RLA rla.Options
	// R1 is the APMOS gather truncation used by Parallel's initialization
	// (paper default 50). Zero means the apmos default.
	R1 int
	// Method selects how Parallel computes local right vectors during
	// initialization (Gram-matrix method of snapshots by default).
	Method apmos.Method
}

// Validate reports whether the options describe a usable configuration.
// It is the error-returning twin of validated, for callers (the public
// parsvd facade) that must not panic.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("core: K = %d < 1", o.K)
	}
	if o.ForgetFactor <= 0 || o.ForgetFactor > 1 {
		return fmt.Errorf("core: forget factor %g outside (0, 1]", o.ForgetFactor)
	}
	if o.R1 < 0 {
		return fmt.Errorf("core: R1 = %d < 0", o.R1)
	}
	return o.RLA.Validate()
}

func (o Options) validated() Options {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	if o.RLA.IsZero() {
		o.RLA = rla.DefaultOptions()
	}
	return o
}

// Serial is the single-process streaming SVD engine (ParSVD_Serial).
type Serial struct {
	opts Options
	svd  *stream.SVD
}

var _ Decomposer = (*Serial)(nil)

// NewSerial constructs a serial engine.
func NewSerial(opts Options) *Serial {
	opts = opts.validated()
	return &Serial{
		opts: opts,
		svd: stream.New(stream.Options{
			K:       opts.K,
			FF:      opts.ForgetFactor,
			LowRank: opts.LowRank,
			RLA:     opts.RLA,
		}),
	}
}

// Options returns the validated options the engine was built with.
func (s *Serial) Options() Options { return s.opts }

// Initialize seeds the decomposition with the first batch (Listing 1).
func (s *Serial) Initialize(a *mat.Dense) Decomposer {
	s.svd.Initialize(a)
	return s
}

// IncorporateData streams one more batch (Listing 1).
func (s *Serial) IncorporateData(a *mat.Dense) Decomposer {
	s.svd.IncorporateData(a)
	return s
}

// Push ingests one batch in factor form x·sk (sk nil for a raw batch):
// the first push initializes, later ones stream (stream.SVD.Push).
func (s *Serial) Push(x, sk *mat.Dense) { s.svd.Push(x, sk) }

// Modes returns the current M×K truncated left singular vectors.
func (s *Serial) Modes() *mat.Dense { return s.svd.Modes() }

// SingularValues returns the current truncated singular values.
func (s *Serial) SingularValues() []float64 { return s.svd.SingularValues() }

// Iterations returns the number of IncorporateData calls.
func (s *Serial) Iterations() int { return s.svd.Iterations() }

// SnapshotsSeen returns the total number of ingested snapshot columns.
func (s *Serial) SnapshotsSeen() int { return s.svd.SnapshotsSeen() }

// Parallel is the distributed streaming SVD engine (ParSVD_Parallel). Each
// rank constructs its own Parallel around the communicator and its row
// block of the data; the instances cooperate via MPI-style collectives.
type Parallel struct {
	opts      Options
	comm      *mpi.Comm
	ulocal    *mat.Dense // local slice of the truncated left singular vectors
	singular  []float64
	rows      int
	iteration int
	snapshots int

	// up is the streaming update with the TSQR strategy; its workspace
	// recycles this rank's temporaries across batches, while matrices that
	// cross rank boundaries are still allocated by the communicator.
	up stream.Update
}

var _ Decomposer = (*Parallel)(nil)

// NewParallel constructs a parallel engine bound to one rank of a
// communicator.
func NewParallel(c *mpi.Comm, opts Options) *Parallel {
	if c == nil {
		panic("core: NewParallel needs a communicator; use NewSerial for single-process runs")
	}
	opts = opts.validated()
	return &Parallel{opts: opts, comm: c,
		up: stream.Update{QR: tsqrQR{c}, LowRank: opts.LowRank, RLA: opts.RLA}}
}

// Rank returns this engine's rank in the communicator.
func (p *Parallel) Rank() int { return p.comm.Rank() }

// Initialize seeds the decomposition with this rank's block of the first
// batch using the distributed (optionally randomized) APMOS SVD — the
// paper's Listing 2/3 `initialize` → `parallel_svd`.
func (p *Parallel) Initialize(a *mat.Dense) Decomposer {
	if p.ulocal != nil {
		panic("core: Initialize called twice")
	}
	modes, s := apmos.Decompose(p.comm, a, apmos.Options{
		K:       p.opts.K,
		R1:      p.opts.R1,
		R2:      p.opts.K,
		Method:  p.opts.Method,
		LowRank: p.opts.LowRank,
		RLA:     p.opts.RLA,
	})
	p.ulocal = modes
	p.singular = s
	p.rows = a.Rows()
	p.snapshots = a.Cols()
	return p
}

// IncorporateData streams this rank's block of a new batch: the forget-
// factor-weighted concatenation is re-orthogonalized with a distributed
// QR, and a small SVD of the global R factor updates the modes (the
// paper's Listing 2 `incorporate_data` → Listing 4 `parallel_qr`).
func (p *Parallel) IncorporateData(a *mat.Dense) Decomposer {
	p.mustBeInitialized()
	p.Push(a, nil)
	return p
}

// Push ingests this rank's row block of one batch in factor form x·s
// (s nil: x is the raw block; otherwise x is the rank's rows of a sketch
// basis and s the full projection). The first push seeds the engine
// through APMOS (Listing 3), which needs the raw block, so a sketched
// first batch is multiplied out here — the only place a sketch is ever
// rebuilt. Every later push runs the streaming update on the pair.
func (p *Parallel) Push(x, s *mat.Dense) {
	if p.ulocal == nil {
		if s != nil {
			x = mat.Mul(x, s)
		}
		p.Initialize(x)
		return
	}
	if x.Rows() != p.rows {
		panic(fmt.Sprintf("core: batch has %d rows, want %d", x.Rows(), p.rows))
	}
	b := x.Cols()
	if s != nil {
		b = s.Cols()
	}
	if b == 0 {
		return
	}
	next, sv, _ := p.up.Step(p.ulocal, p.singular, p.opts.ForgetFactor, x, s, p.opts.K, p.singular)
	p.up.Workspace().Put(p.ulocal) // recycle the previous local modes storage
	p.ulocal, p.singular = next, sv
	p.iteration++
	p.snapshots += b
}

// tsqrQR is the parallel engine's update strategy (Listing 4): the gather
// TSQR of the row-distributed stack, the small SVD on rank 0 only, and a
// broadcast of its factors to every rank.
type tsqrQR struct{ comm *mpi.Comm }

// Factor is the gather TSQR with this rank's Q left as its leaf
// factorization and correction block: the modes come out as
// Q_leaf·[corr·Ũ_K; 0] rather than (Q_leaf·corr)·Ũ_K.
func (t tsqrQR) Factor(ws *mat.Workspace, a *mat.Dense) (leaf linalg.Householder, corr, r *mat.Dense) {
	return tsqr.GatherFactorWith(ws, t.comm, a)
}

func (t tsqrQR) Share(ws *mat.Workspace, u *mat.Dense, s []float64) (*mat.Dense, []float64) {
	bu := t.comm.BcastMatrix(0, u)
	bs := t.comm.BcastFloats(0, s)
	if t.comm.Rank() == 0 {
		// Broadcast returns a fresh copy on the root too; recycle the
		// pre-broadcast factors instead of dropping them.
		ws.Put(u)
		ws.PutFloats(s)
	}
	return bu, bs
}

// Modes returns this rank's M_i×K slice of the truncated left singular
// vectors. The caller must not mutate the result, and the matrix is only
// valid until the next IncorporateData call — its storage is recycled into
// the update's workspace. Clone it to retain a snapshot across updates.
func (p *Parallel) Modes() *mat.Dense {
	p.mustBeInitialized()
	return p.ulocal
}

// SingularValues returns the current truncated (global) singular values.
func (p *Parallel) SingularValues() []float64 {
	p.mustBeInitialized()
	return p.singular
}

// Iterations returns the number of streaming updates performed.
func (p *Parallel) Iterations() int { return p.iteration }

// SnapshotsSeen returns the total number of ingested snapshot columns.
func (p *Parallel) SnapshotsSeen() int { return p.snapshots }

// GatherModes assembles the full M×K mode matrix at rank 0 (the paper's
// `_gather_modes`). Other ranks receive nil.
func (p *Parallel) GatherModes() *mat.Dense {
	p.mustBeInitialized()
	blocks := p.comm.GatherMatrix(0, p.ulocal)
	if p.comm.Rank() != 0 {
		return nil
	}
	return mat.VStack(blocks...)
}

func (p *Parallel) mustBeInitialized() {
	if p.ulocal == nil {
		panic("core: Parallel not initialized; call Initialize with the first batch")
	}
}
