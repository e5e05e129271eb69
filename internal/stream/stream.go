// Package stream implements the serial streaming (online) SVD of Levy &
// Lindenbaum (paper §3.1, Algorithm 1, Listing 1): the truncated left
// singular vectors of a growing snapshot matrix are updated batch by batch,
// with a forget factor ff weighting the contribution of past batches.
//
// The streaming state after ingesting batches A_0 … A_i approximates the
// truncated SVD of [ff^i·A_0 | … | ff·A_{i−1} | A_i]; with ff = 1 and K at
// least the matrix rank it reproduces the one-shot SVD exactly.
//
// The package also hosts that update itself, written once (Update): the
// parallel engine (internal/core) runs it with a distributed TSQR
// strategy, and the pairwise merge (internal/merge) calls it with unit
// weight. Sketched batches reach it as factor pairs on every path.
package stream

import (
	"fmt"

	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
)

// Options configures a streaming SVD.
type Options struct {
	// K is the number of retained modes (truncation rank).
	K int
	// FF is the forget factor in (0, 1]; the paper uses 0.95 in its
	// experiments and 1.0 to reproduce the one-shot SVD.
	FF float64
	// LowRank replaces the small dense SVD in each update with the
	// randomized variant (paper §3.3).
	LowRank bool
	// RLA configures the randomized SVD when LowRank is set.
	RLA rla.Options
}

// Validate reports whether the options describe a usable configuration.
// It is the error-returning twin of validated, for callers (the public
// parsvd facade) that must not panic.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("stream: K = %d < 1", o.K)
	}
	if o.FF <= 0 || o.FF > 1 {
		return fmt.Errorf("stream: forget factor %g outside (0, 1]", o.FF)
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

// SVD is the streaming decomposition state. Create one with New, seed it
// with Initialize, then feed batches with IncorporateData.
type SVD struct {
	opts        Options
	modes       *mat.Dense // M×k, k = min(K, columns seen)
	singular    []float64
	rows        int
	iterations  int
	snapshots   int
	initialized bool

	// up is the update step; its workspace recycles every temporary, and
	// the modes storage, across iterations.
	up Update
}

// New returns an empty streaming SVD with the given options.
func New(opts Options) *SVD {
	opts = opts.validated()
	return &SVD{opts: opts, up: Update{LowRank: opts.LowRank, RLA: opts.RLA}}
}

// Restore rebuilds a streaming SVD from previously captured state (the
// checkpoint/restart path): the current modes, singular values and
// counters. The modes matrix is adopted without copying.
//
// Every structural invariant the streaming update relies on is checked
// here, so a corrupted checkpoint fails loudly at load time rather than
// deep inside the next IncorporateData call.
func Restore(opts Options, modes *mat.Dense, singular []float64, iterations, snapshots int) (*SVD, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("stream: Restore: %w", err)
	}
	if modes == nil {
		return nil, fmt.Errorf("stream: Restore state inconsistent: nil modes")
	}
	if modes.Rows() < 1 || modes.Cols() < 1 {
		return nil, fmt.Errorf("stream: Restore state inconsistent: empty %dx%d modes",
			modes.Rows(), modes.Cols())
	}
	if modes.Cols() != len(singular) {
		return nil, fmt.Errorf("stream: Restore state inconsistent: %d mode columns, %d singular values",
			modes.Cols(), len(singular))
	}
	// The engine never retains more than K modes, so a state claiming
	// len(singular) > K cannot have been produced by these options.
	if opts.K < len(singular) {
		return nil, fmt.Errorf("stream: Restore state inconsistent: %d singular values exceed K = %d",
			len(singular), opts.K)
	}
	if iterations < 0 || snapshots < modes.Cols() {
		return nil, fmt.Errorf("stream: Restore counters invalid: iterations=%d snapshots=%d (modes %dx%d)",
			iterations, snapshots, modes.Rows(), modes.Cols())
	}
	s := New(opts)
	s.modes = modes
	s.singular = append([]float64(nil), singular...)
	s.rows = modes.Rows()
	s.iterations = iterations
	s.snapshots = snapshots
	s.initialized = true
	return s, nil
}

// Initialized reports whether Initialize has been called.
func (s *SVD) Initialized() bool { return s.initialized }

// Iterations returns the number of IncorporateData calls so far.
func (s *SVD) Iterations() int { return s.iterations }

// SnapshotsSeen returns the total number of ingested snapshot columns.
func (s *SVD) SnapshotsSeen() int { return s.snapshots }

// Modes returns the current truncated left singular vectors (M×k). The
// caller must not mutate the result, and the matrix is only valid until the
// next IncorporateData call — its storage is recycled into the update's
// workspace. Clone it to retain a snapshot across updates.
func (s *SVD) Modes() *mat.Dense {
	s.mustBeInitialized()
	return s.modes
}

// SingularValues returns the current truncated singular values. The caller
// must not mutate the result.
func (s *SVD) SingularValues() []float64 {
	s.mustBeInitialized()
	return s.singular
}

func (s *SVD) mustBeInitialized() {
	if !s.initialized {
		panic("stream: SVD not initialized; call Initialize with the first batch")
	}
}

// Initialize seeds the decomposition with the first batch A_0 (M×B): a QR
// factorization followed by an SVD of the small R factor (Algorithm 1,
// steps I1–I2) — the update with no modes yet.
func (s *SVD) Initialize(a *mat.Dense) *SVD {
	if s.initialized {
		panic("stream: Initialize called twice; use IncorporateData for new batches")
	}
	return s.Push(a, nil)
}

// IncorporateData ingests a new batch A_i (M×B), updating the truncated
// modes and singular values (Algorithm 1, steps 1–5):
//
//	[ff·U_{i−1}·D_{i−1} | A_i] = U′·D′   (QR)
//	D′ = Ũ·D̃·Ṽᵀ                        (small SVD)
//	U_i = U′·Ũ[:, :K],  D_i = D̃[:K]
func (s *SVD) IncorporateData(a *mat.Dense) *SVD {
	s.mustBeInitialized()
	return s.Push(a, nil)
}

// Push ingests one batch in factor form x·sk. With sk nil, x is the raw
// M×B batch; otherwise x is an M×L range basis and sk the L×B projection
// of a sketched batch, applied without forming the product. The first
// push initializes the decomposition, every later one is the forget-
// factor-weighted update. Every temporary comes from the update's
// workspace, so the steady-state push performs no heap allocations.
func (s *SVD) Push(x, sk *mat.Dense) *SVD {
	m, b := x.Dims()
	if sk != nil {
		b = sk.Cols()
	}
	if !s.initialized && (m == 0 || b == 0) {
		panic("stream: empty initial batch")
	}
	if s.initialized && m != s.rows {
		panic(fmt.Sprintf("stream: batch has %d rows, want %d", m, s.rows))
	}
	if b == 0 {
		return s
	}
	next, sv, _ := s.up.Step(s.modes, s.singular, s.opts.FF, x, sk, s.opts.K, s.singular)
	s.up.Workspace().Put(s.modes) // recycle the previous modes storage
	s.modes, s.singular = next, sv
	if s.initialized {
		s.iterations++
	}
	s.rows, s.initialized = m, true
	s.snapshots += b
	return s
}
