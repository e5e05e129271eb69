package parsvd

// Sketched push (Li–Kluger–Tygert, arXiv 1612.08709; RSVDPACK, arXiv
// 1502.05366): the sketch, not the data, crosses the wire. An M×B batch A
// is compressed into the factor pair (Q, S) with A ≈ Q·S — Q an M×L
// orthonormal range basis from internal/rla, S = QᵀA the L×B projection —
// and only L·(M+B) floats travel instead of M·B. Every backend applies the
// pair directly: the streaming update factors [ff·U·diag(Σ) | Q] and maps
// R back through blockdiag(I, S), so the M×B product is never formed. The
// one exception is a rank-parallel engine's first batch, which seeds the
// engine through APMOS and is multiplied out there.

import (
	"errors"
	"fmt"

	"goparsvd/internal/rla"
)

// Sketch compresses an M×B snapshot batch into the factor pair (q, s)
// with batch ≈ q·s — the same compression WithSketchedPush applies before
// every push, exposed so a producer can sketch on its own machine and
// ship only the pair (PushSketch, or the serving API's sketched push).
// cfg follows SketchConfig semantics: Tol > 0 grows the rank adaptively
// until the estimated residual falls below Tol·‖batch‖_F, Tol == 0 uses a
// fixed width of MaxRank. An optional RLA argument tunes the sketch.
// A nil pair with a nil error means the sketch would not compress this
// batch (L·(M+B) ≥ M·B): push it raw instead.
func Sketch(batch *Matrix, cfg SketchConfig, opts ...RLA) (q, s *Matrix, err error) {
	if len(opts) > 1 {
		return nil, nil, fmt.Errorf("parsvd: Sketch takes at most one RLA, got %d", len(opts))
	}
	var ro RLA
	if len(opts) == 1 {
		if err := opts[0].Validate(); err != nil {
			return nil, nil, fmt.Errorf("parsvd: Sketch: %w", err)
		}
		ro = opts[0]
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if err := checkBatch(batch, nil, 0); err != nil {
		return nil, nil, err
	}
	return sketchBatch(batch, cfg, ro)
}

// sketchBatch runs the validated sketch: cfg has passed
// SketchConfig.validate and batch has passed checkBatch.
func sketchBatch(batch *Matrix, cfg SketchConfig, ro RLA) (*Matrix, *Matrix, error) {
	maxRank := cfg.MaxRank
	if maxRank == 0 {
		// Adaptive with no explicit cap: saturate only at the batch shape.
		maxRank = batch.Rows()
		if c := batch.Cols(); c < maxRank {
			maxRank = c
		}
	}
	block := cfg.Block
	if block == 0 {
		block = 8
	}
	tol := cfg.Tol
	if tol > 0 {
		// The configured tolerance is relative to the batch; rla wants the
		// absolute spectral bound.
		tol *= batch.FroNorm()
		if tol == 0 {
			// A zero batch: any one-column basis nominally satisfies tol=0,
			// but rla requires tol > 0; ship it raw (it is all zeros).
			return nil, nil, nil
		}
	}
	q, s, err := rla.SketchFactors(batch, tol, block, maxRank, ro)
	if err != nil {
		return nil, nil, fmt.Errorf("parsvd: sketch: %w", err)
	}
	return q, s, nil
}

// PushSketch ingests one snapshot batch in compressed factor form: q
// (M×L) times s (L×B) stands in for the M×B batch it was sketched from.
// Pairs come from Sketch on a producer machine, from the serving layer's
// sketched ingest, or from a WAL replay of a sketched push. PushSketch
// works on any SVD regardless of WithSketchedPush: every backend applies
// the pair directly (the Distributed backend ships it over the wire,
// each rank receiving its row block of q and all of s). Replaying the
// same pair reproduces the same update bit-exactly.
func (s *SVD) PushSketch(q, sk *Matrix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("parsvd: PushSketch on closed SVD")
	}
	if sk == nil {
		return errors.New("parsvd: empty sketch factor pair")
	}
	return s.pushLocked(q, sk)
}
