package stream

import (
	"fmt"
	"math"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/rla"
)

// Update is the paper's streaming update (Algorithm 1, steps 1–5), written
// once for every engine that needs it:
//
//	[w·U·diag(Σ) | X] = Q·R                (QR, through a strategy)
//	R·blockdiag(I, S) = Ũ·Σ̃·Ṽᵀ              (small SVD)
//	U′ = Q·Ũ[:, :k],  Σ′ = Σ̃[:k]           (truncation, mode GEMM)
//
// The batch arrives in factor form X·S. A raw batch is X with S nil. A
// Li–Kluger–Tygert sketch (arXiv 1612.08709) is its range basis Q with
// S = QᵀA, so the M×B product is never formed. With no modes yet the step
// is the initialization (steps I1–I2); with w = 1 and X = U₂·diag(Σ₂) it
// is the Iwen–Ong pairwise merge (arXiv 1601.07010).
//
// Q stays implicit: the modes are Q·[Ũ_K; 0], applied through the
// compact-WY factors (linalg.Householder.MulQ); Q is never formed. Every
// temporary comes from the Update's workspace, so a steady stream of
// same-shaped steps allocates nothing. The zero value is a dense-SVD,
// local-QR update; an Update must not be used from multiple goroutines
// concurrently.
type Update struct {
	// QR factors the stacked matrix; nil selects LocalQR.
	QR QR
	// LowRank replaces the dense small SVD with the randomized one
	// (paper §3.3), tuned by RLA.
	LowRank bool
	RLA     rla.Options

	ws mat.Workspace
}

// QR is an Update's factorization strategy. LocalQR factors the whole
// stacked matrix in this process; a distributed strategy (the TSQR of
// internal/core) factors this process's row block of it.
type QR interface {
	// Factor factors a. This process's rows of Q are leaf·[corr; 0]; corr
	// is nil when leaf's Q is already the whole one. On the process that
	// runs the small SVD it also returns the R factor; r is nil everywhere
	// else. All of them come from ws.
	Factor(ws *mat.Workspace, a *mat.Dense) (leaf linalg.Householder, corr, r *mat.Dense)
	// Share hands the small SVD's factors, computed where Factor returned
	// R, to every process. The Update recycles the results into ws.
	Share(ws *mat.Workspace, u *mat.Dense, s []float64) (*mat.Dense, []float64)
}

// LocalQR is the single-process strategy: Householder QR of the whole
// stacked matrix, with the small SVD's factors used where they are made.
type LocalQR struct{}

// Factor is linalg.FactorQR.
func (LocalQR) Factor(ws *mat.Workspace, a *mat.Dense) (leaf linalg.Householder, corr, r *mat.Dense) {
	leaf, r = linalg.FactorQR(ws, a)
	return leaf, nil, r
}

// Share is the identity: there is no other process.
func (LocalQR) Share(_ *mat.Workspace, u *mat.Dense, s []float64) (*mat.Dense, []float64) {
	return u, s
}

// Workspace is the pool the Update draws from. Callers recycle matrices
// the update returned (superseded modes) and draw their own operands
// (the merge's scaled second partial) here.
func (u *Update) Workspace() *mat.Workspace { return &u.ws }

// Step runs one update of the factorization (modes, sigma) — nil modes for
// the first batch — by the batch x·s (s nil for a raw batch), weighting
// the running factorization by w and truncating to at most k modes. It
// returns the next modes (this process's rows, drawn from the workspace),
// the retained singular values appended to dst[:0], and the Frobenius
// norm of the discarded tail. dst may alias sigma; modes is not recycled.
func (u *Update) Step(modes *mat.Dense, sigma []float64, w float64, x, s *mat.Dense, k int, dst []float64) (next *mat.Dense, sv []float64, tail float64) {
	qr := u.QR
	if qr == nil {
		qr = LocalQR{}
	}
	k0 := 0
	if modes != nil {
		k0 = modes.Cols()
	}
	// Scale the running factorization and append the batch (Listing 1:
	// m_ap = ff·U·diag(D); concat); the weight folds into the diagonal
	// scaling pass.
	stacked := x
	if k0 > 0 {
		m := x.Rows()
		scaled := u.ws.GetUninit(m, k0)
		mat.MulDiagScaledInto(scaled, w, modes, sigma)
		stacked = u.ws.GetUninit(m, k0+x.Cols())
		mat.HStackInto(stacked, scaled, x)
		u.ws.Put(scaled)
	}
	leaf, corr, r := qr.Factor(&u.ws, stacked)
	if stacked != x {
		u.ws.Put(stacked)
	}
	var ut *mat.Dense
	var d []float64
	if r != nil {
		if s != nil {
			r = u.withS(r, k0, s)
		}
		ut, d = u.smallSVD(r, k)
		u.ws.Put(r)
	}
	ut, d = qr.Share(&u.ws, ut, d)

	kk := min(k, len(d))
	for _, v := range d[kk:] {
		tail += v * v
	}
	usub := u.ws.GetUninit(ut.Rows(), kk)
	ut.SliceColsInto(usub, 0, kk)
	u.ws.Put(ut)
	if corr != nil {
		c := u.ws.GetUninit(corr.Rows(), kk)
		mat.MulInto(c, corr, usub)
		u.ws.Put(usub)
		u.ws.Put(corr)
		usub = c
	}
	next = leaf.MulQ(&u.ws, usub)
	leaf.Release(&u.ws)
	sv = append(dst[:0], d[:kk]...)
	u.ws.Put(usub)
	u.ws.PutFloats(d)
	return next, sv, math.Sqrt(tail)
}

// withS maps the sketch's columns of R back to snapshot space,
// R·blockdiag(I, S), recycling R: the running factorization's columns
// pass through and the batch's L columns become its B columns.
func (u *Update) withS(r *mat.Dense, k0 int, s *mat.Dense) *mat.Dense {
	l, b := s.Dims()
	bd := u.ws.Get(k0+l, k0+b)
	for i := 0; i < k0; i++ {
		bd.Set(i, i, 1)
	}
	for i := 0; i < l; i++ {
		copy(bd.RowView(k0 + i)[k0:], s.RowView(i))
	}
	rs := u.ws.GetUninit(r.Rows(), k0+b)
	mat.MulInto(rs, r, bd)
	u.ws.Put(bd)
	u.ws.Put(r)
	return rs
}

// smallSVD factorizes the small matrix the QR step produced, optionally
// with the randomized algorithm. Singular values come back in descending
// order, which subsumes Listing 1's argsort; both factors are
// workspace-owned.
func (u *Update) smallSVD(r *mat.Dense, k int) (*mat.Dense, []float64) {
	if u.LowRank {
		ut, d, err := rla.LowRankSVDWith(&u.ws, r, min(k, r.Rows(), r.Cols()), u.RLA)
		if err != nil {
			// Options are validated before ingest and r is never empty
			// here, so rla cannot reject the rank; a failure is a broken
			// internal invariant, not a caller mistake.
			panic(fmt.Sprintf("stream: low-rank small SVD: %v", err))
		}
		return ut, d
	}
	ut, d, v := linalg.SVDWith(&u.ws, r)
	u.ws.Put(v)
	return ut, d
}
