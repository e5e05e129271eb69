// Package rla implements the randomized linear algebra building block of
// PyParSVD (paper §3.3): Gaussian sketching, a randomized range finder with
// oversampling and power iterations, and the randomized low-rank SVD that
// the library substitutes for any dense SVD in its pipeline
// (`low_rank_svd` in the paper's listings).
package rla

import (
	"fmt"
	"math/rand"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
)

// Options controls the randomized SVD approximation quality.
type Options struct {
	// Oversample is the number p of extra sketch columns beyond the target
	// rank; the sketch has k+p columns. Halko et al. recommend 5–10.
	Oversample int
	// PowerIters is the number q of power (subspace) iterations. Each
	// iteration sharpens the sketch's alignment with the dominant
	// singular subspace at the cost of two extra passes over A; q = 1–2
	// suffices for the rapidly decaying spectra of PDE snapshot matrices.
	PowerIters int
	// Seed makes the Gaussian sketch reproducible. Two calls with the same
	// seed and input produce identical factors.
	Seed int64
}

// DefaultOptions returns the settings used throughout the reproduction:
// oversampling 10, one power iteration, fixed seed.
func DefaultOptions() Options {
	return Options{Oversample: 10, PowerIters: 1, Seed: 1}
}

// IsZero reports whether o is the zero value, i.e. the caller never set any
// field. Consumers use it to substitute DefaultOptions; it is the explicit
// replacement for the fragile `o == (Options{})` struct comparison, which
// breaks as soon as Options grows a non-comparable field and cannot be told
// apart from a deliberately all-zero configuration at the call site.
func (o Options) IsZero() bool {
	return o.Oversample == 0 && o.PowerIters == 0 && o.Seed == 0
}

// Validate reports whether the options describe a usable configuration.
// The zero value is valid (it means "use DefaultOptions").
func (o Options) Validate() error {
	if o.Oversample < 0 {
		return fmt.Errorf("rla: Oversample = %d < 0", o.Oversample)
	}
	if o.PowerIters < 0 {
		return fmt.Errorf("rla: PowerIters = %d < 0", o.PowerIters)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Oversample <= 0 {
		o.Oversample = 10
	}
	if o.PowerIters < 0 {
		o.PowerIters = 0
	}
	return o
}

// Gaussian returns an r×c matrix of iid standard normal entries drawn from
// the given source.
func Gaussian(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	fillGaussian(m, rng)
	return m
}

// fillGaussian overwrites m with iid standard normal entries.
func fillGaussian(m *mat.Dense, rng *rand.Rand) {
	data := m.RawData()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
}

// RangeFinder computes an orthonormal basis Q (m×l, l = k+oversample,
// clamped to min(m, n)) whose span approximates the range of A, via
// Y = A·Ω with a Gaussian Ω followed by QR, optionally sharpened by
// power iterations with re-orthogonalization at every half-step
// (the numerically stable subspace-iteration form). A target rank below
// one is reported as an error, never a panic: the rank reaches this
// package straight from public facade options.
func RangeFinder(a *mat.Dense, k int, opts Options) (*mat.Dense, error) {
	return RangeFinderWith(nil, a, k, opts)
}

// RangeFinderWith is RangeFinder drawing the sketch, the power-iteration
// intermediates and the returned basis from ws, so repeated calls with
// steady shapes (the streaming low-rank path) reuse their buffers.
func RangeFinderWith(ws *mat.Workspace, a *mat.Dense, k int, opts Options) (*mat.Dense, error) {
	opts = opts.withDefaults()
	m, n := a.Dims()
	if k < 1 {
		return nil, fmt.Errorf("rla: RangeFinder target rank %d < 1", k)
	}
	l := k + opts.Oversample
	if l > n {
		l = n
	}
	if l > m {
		l = m
	}
	return rangeBasis(ws, a, l, opts), nil
}

// rangeBasis is the sketch-QR-power-iterate core shared by RangeFinderWith
// and SketchFactors: an orthonormal m×l basis for a width l the caller has
// already clamped to [1, min(m, n)].
func rangeBasis(ws *mat.Workspace, a *mat.Dense, l int, opts Options) *mat.Dense {
	m, n := a.Dims()
	rng := rand.New(rand.NewSource(opts.Seed))
	omega := ws.GetUninit(n, l)
	fillGaussian(omega, rng)
	y := ws.GetUninit(m, l)
	mat.MulInto(y, a, omega)
	ws.Put(omega)
	q, r := linalg.QRWith(ws, y)
	ws.Put(r)
	for it := 0; it < opts.PowerIters; it++ {
		z := ws.GetUninit(n, l)
		mat.MulTransAInto(z, a, q) // n×l
		ws.Put(q)
		qz, rz := linalg.QRWith(ws, z)
		ws.Put(z)
		ws.Put(rz)
		mat.MulInto(y, a, qz) // m×l
		ws.Put(qz)
		q, r = linalg.QRWith(ws, y)
		ws.Put(r)
	}
	ws.Put(y)
	return q
}

// RandomizedSVD computes an approximate rank-k SVD A ≈ U·diag(s)·Vᵀ using
// the Halko–Martinsson–Tropp scheme: project onto the sketched range,
// solve the small problem exactly, and lift back (paper Eqs. 7–11).
// U is m×k, s has length k, V is n×k (k clamped to min(m, n)).
func RandomizedSVD(a *mat.Dense, k int, opts Options) (u *mat.Dense, s []float64, v *mat.Dense, err error) {
	return RandomizedSVDWith(nil, a, k, opts)
}

// RandomizedSVDWith is RandomizedSVD with every temporary and the returned
// factors drawn from ws; the caller owns u, s and v.
func RandomizedSVDWith(ws *mat.Workspace, a *mat.Dense, k int, opts Options) (u *mat.Dense, s []float64, v *mat.Dense, err error) {
	m, n := a.Dims()
	t := min(m, n)
	if k > t {
		k = t
	}
	if k < 1 {
		return nil, nil, nil, fmt.Errorf("rla: RandomizedSVD target rank %d < 1", k)
	}
	q, err := RangeFinderWith(ws, a, k, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	l := q.Cols()
	b := ws.GetUninit(l, n)
	mat.MulTransAInto(b, q, a) // l×n, the small matrix Ã = Q*·A
	var ub *mat.Dense
	ub, s, v = linalg.SVDWith(ws, b)
	ws.Put(b)
	u = ws.GetUninit(m, ub.Cols())
	mat.MulInto(u, q, ub) // lift: U = Q·Ũ (paper Eq. 10)
	ws.Put(ub)
	ws.Put(q)
	if k < len(s) {
		uk := ws.GetUninit(m, k)
		u.SliceColsInto(uk, 0, k)
		ws.Put(u)
		vk := ws.GetUninit(v.Rows(), k)
		v.SliceColsInto(vk, 0, k)
		ws.Put(v)
		u, v = uk, vk
		s = s[:k]
	}
	return u, s, v, nil
}

// LowRankSVD is the paper's `low_rank_svd(wglobal, K)` helper: it returns
// only the left factor and the singular values, which is all the APMOS and
// streaming pipelines consume.
func LowRankSVD(a *mat.Dense, k int, opts Options) (u *mat.Dense, s []float64, err error) {
	return LowRankSVDWith(nil, a, k, opts)
}

// LowRankSVDWith is LowRankSVD drawing its buffers from ws; the caller owns
// the returned factors.
func LowRankSVDWith(ws *mat.Workspace, a *mat.Dense, k int, opts Options) (u *mat.Dense, s []float64, err error) {
	u, s, v, err := RandomizedSVDWith(ws, a, k, opts)
	if err != nil {
		return nil, nil, err
	}
	ws.Put(v)
	return u, s, nil
}

// SketchFactors compresses A (m×n) into the factor pair (Q, S) with
// A ≈ Q·S: Q is an m×l orthonormal range basis, S = QᵀA is l×n, and the
// pair costs l·(m+n) floats against A's m·n. When tol > 0 the width l is
// chosen adaptively (AdaptiveRangeFinder, so the estimated residual obeys
// ‖A − QS‖₂ ≲ tol w.h.p.) and then capped at maxRank — the adaptive basis
// is nested by construction, so truncation keeps the leading directions.
// When tol == 0 the basis has exactly min(maxRank, m, n) columns: unlike
// RangeFinder, no oversampling surplus is kept, because Q crosses the
// wire. A nil pair with a nil error reports that sketching would not
// compress (l·(m+n) ≥ m·n, or A is empty/numerically zero) and the caller
// should ship A raw.
func SketchFactors(a *mat.Dense, tol float64, block, maxRank int, opts Options) (q, s *mat.Dense, err error) {
	if maxRank < 1 {
		return nil, nil, fmt.Errorf("rla: SketchFactors max rank %d < 1", maxRank)
	}
	if tol < 0 {
		return nil, nil, fmt.Errorf("rla: SketchFactors tol = %g < 0", tol)
	}
	opts = opts.withDefaults()
	m, n := a.Dims()
	l := min(maxRank, min(m, n))
	if l < 1 {
		return nil, nil, nil
	}
	if tol > 0 {
		if block < 1 {
			return nil, nil, fmt.Errorf("rla: SketchFactors block = %d < 1", block)
		}
		q, err = AdaptiveRangeFinder(a, tol, block, opts)
		if err != nil {
			return nil, nil, err
		}
		if q.Cols() > l {
			q = q.SliceCols(0, l)
		}
	} else {
		q = rangeBasis(nil, a, l, opts)
	}
	if lq := q.Cols(); lq == 0 || lq*(m+n) >= m*n {
		return nil, nil, nil
	}
	return q, mat.MulTransA(q, a), nil
}
