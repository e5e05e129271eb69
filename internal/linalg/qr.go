// Package linalg implements the dense decompositions that goparsvd needs:
// Householder QR, the Golub–Reinsch SVD, a one-sided Jacobi SVD, and a
// symmetric Jacobi eigensolver. It is the stdlib-only stand-in for the
// LAPACK routines PyParSVD reaches through NumPy (np.linalg.qr,
// np.linalg.svd, np.linalg.eigh).
//
// The QR is blocked compact-WY Householder in the style of LAPACK
// geqrt/larft/larfb: panels of qrPanel columns are reduced one reflector at
// a time, and the trailing updates, the T factor's inner products and every
// application of Q run on mat's dispatched GEMM. FactorQR leaves Q implicit
// (Householder); MulQ computes Q·[C; 0] for a small C, which is how the
// streaming update forms its modes, and QRWith is MulQ on [I; 0] for the
// callers that need Q itself.
//
// All routines operate on mat.Dense values and never modify their inputs.
// Factorizations use deterministic sign conventions where noted so that
// results are reproducible across serial and distributed code paths.
//
// Every decomposition has a *With variant taking a mat.Workspace; the
// streaming engines call those in their per-batch hot paths so temporaries
// are recycled across iterations instead of reallocated. A nil workspace
// falls back to plain allocation.
package linalg

import (
	"fmt"
	"math"

	"goparsvd/internal/mat"
)

// qrPanel is the panel width of the blocked factorization. Columns inside a
// panel are reduced one reflector at a time (vector operations on
// contiguous columns); everything across panels — the trailing update, the
// T factor's Gram products and every application of Q — is a GEMM. Wider
// panels feed the GEMMs a longer inner dimension but leave more of the
// 2·m·n² flops in the unblocked loop; the value was chosen by timing the
// streaming update's shapes (M×(K+B) with K+B between 26 and 42).
const qrPanel = 8

// Householder is a QR factorization A = Q·R in compact-WY form (LAPACK
// geqrt/larft): Q = H₀·H₁···H_{t−1} = I − V·T·Vᵀ with V the m×t unit lower
// trapezoidal matrix of Householder vectors and T the t×t upper triangular
// factor, t = min(m, n). Q is never formed: MulQ applies it to a small
// matrix. The storage comes from the workspace given to FactorQR and goes
// back with Release.
type Householder struct {
	// w is the n×m working transpose of A. Once factored, its first t rows
	// are Vᵀ with explicit zeros left of each unit diagonal, so row blocks
	// of it are the GEMM operands of the trailing update and of MulQ.
	w *mat.Dense
	// tf is T, kept whole (not per panel) so MulQ is one tall product.
	tf *mat.Dense
}

// QR computes the thin (reduced) QR factorization A = Q·R of an m×n matrix,
// matching numpy.linalg.qr's "reduced" mode: Q is m×t and R is t×n with
// t = min(m, n). Q has orthonormal columns and R is upper triangular.
func QR(a *mat.Dense) (q, r *mat.Dense) { return QRWith(nil, a) }

// QRWith is QR drawing every temporary and both returned factors from ws.
// The caller owns q and r and may return them to the workspace when done.
// It is FactorQR followed by MulQ on [I; 0].
func QRWith(ws *mat.Workspace, a *mat.Dense) (q, r *mat.Dense) {
	h, r := FactorQR(ws, a)
	t := r.Rows()
	eye := ws.Get(t, t)
	for i := 0; i < t; i++ {
		eye.Set(i, i, 1)
	}
	q = h.MulQ(ws, eye)
	ws.Put(eye)
	h.Release(ws)
	return q, r
}

// FactorQR computes the blocked Householder QR of the m×n matrix a, returning
// Q implicitly and R (t×n, upper triangular) from ws. a is not modified.
func FactorQR(ws *mat.Workspace, a *mat.Dense) (h Householder, r *mat.Dense) {
	m, n := a.Dims()
	t := min(m, n)
	h.w = ws.GetUninit(n, m)
	a.TInto(h.w)
	h.tf = ws.Get(t, t)
	r = ws.Get(t, n)
	wd, td := h.w.RawData(), h.tf.RawData()
	// Headers for the panel's V and the trailing columns, re-pointed at
	// each panel's rows of w.
	vp, trail := ws.ViewRows(h.w, 0, 0), ws.ViewRows(h.w, 0, 0)
	for j0 := 0; j0 < t; j0 += qrPanel {
		j1 := min(j0+qrPanel, t)
		// Reduce the panel column by column. Row j of w is column j of A,
		// so each reflector is built from, and applied to, contiguous
		// vectors.
		for j := j0; j < j1; j++ {
			v := wd[j*m+j : (j+1)*m]
			tau := house(v)
			td[j*t+j] = tau
			if tau == 0 {
				continue
			}
			for c := j + 1; c < j1; c++ {
				x := wd[c*m+j : (c+1)*m]
				s := tau * (x[0] + dot(v[1:], x[1:]))
				x[0] -= s
				axpy(-s, v[1:], x[1:])
			}
		}
		// The panel's columns of R are final: move them out and leave the
		// explicit Householder vectors (zeros, unit diagonal) in their rows.
		for j := j0; j < j1; j++ {
			row := wd[j*m : (j+1)*m]
			for i := 0; i <= j; i++ {
				r.Set(i, j, row[i])
				row[i] = 0
			}
			row[j] = 1
		}
		// One GEMM gives every inner product the panel needs: against V's
		// leading columns for T, and against the trailing columns of A.
		h.w.ViewRows(j0, j1, vp)
		g := ws.GetUninit(n, j1-j0)
		mat.MulTransBInto(g, h.w, vp)
		h.extendT(g, j0, j1)
		if j1 < n {
			// Trailing update A ← Qpᵀ·A with Qp = I − Vp·Tp·Vpᵀ, in the
			// transposed storage: Aᵀ ← Aᵀ − (Aᵀ·Vp)·Tp·Vpᵀ.
			z := ws.GetUninit(n-j1, j1-j0)
			for i := range n - j1 {
				grow, zrow := g.RowView(j1+i), z.RowView(i)
				for c := range zrow {
					s := 0.0
					for l := 0; l <= c; l++ {
						s += grow[l] * td[(j0+l)*t+j0+c]
					}
					zrow[c] = -s
				}
			}
			h.w.ViewRows(j1, n, trail)
			mat.MulAddInto(trail, z, vp)
			ws.Put(z)
		}
		ws.Put(g)
	}
	ws.PutView(vp)
	ws.PutView(trail)
	// Columns past t (wide inputs) hold the rest of R in their first t rows.
	for j := t; j < n; j++ {
		for i := 0; i < t; i++ {
			r.Set(i, j, wd[j*m+i])
		}
	}
	return h, r
}

// extendT fills columns j0..j1−1 of T by LAPACK larft's forward recurrence,
// T[:j, j] = −τ_j·T[:j, :j]·(V[:, :j]ᵀ·v_j), reading the inner products from
// g, whose row l holds v_lᵀ·Vp. T[j, j] already holds τ_j.
func (h Householder) extendT(g *mat.Dense, j0, j1 int) {
	t := h.tf.Rows()
	td, gd, gc := h.tf.RawData(), g.RawData(), g.Cols()
	for j := j0; j < j1; j++ {
		tau := td[j*t+j]
		for i := 0; i < j; i++ {
			s := 0.0
			for l := i; l < j; l++ {
				s += td[i*t+l] * gd[l*gc+j-j0]
			}
			td[i*t+j] = -tau * s
		}
	}
}

// MulQ returns Q·[c; 0], the m×k product of the factorization's Q with a
// t×k matrix c padded by zero rows, drawn from ws. It is
// [c; 0] − V·T·(Vᵀ·[c; 0]), and because [c; 0] is zero below row t, Vᵀ·[c; 0]
// reads only V's top t rows: the one tall product is V·Y with Y t×k.
func (h Householder) MulQ(ws *mat.Workspace, c *mat.Dense) *mat.Dense {
	t, k := c.Dims()
	if t != h.tf.Rows() {
		panic(fmt.Sprintf("linalg: MulQ operand has %d rows, want %d", t, h.tf.Rows()))
	}
	m := h.w.Cols()
	wd, td := h.w.RawData(), h.tf.RawData()
	// y = −T·(V[:t, :]ᵀ·c). Row i of Vᵀ is zero left of its unit diagonal.
	// T is upper triangular, so the second pass works in place from the
	// top: row i reads only rows i.. of Vᵀ·c, none of them yet overwritten.
	y := ws.Get(t, k)
	for i := 0; i < t; i++ {
		out := y.RowView(i)
		for l := i; l < t; l++ {
			axpy(wd[i*m+l], c.RowView(l), out)
		}
	}
	for i := 0; i < t; i++ {
		out := y.RowView(i)
		scal(-td[i*t+i], out)
		for l := i + 1; l < t; l++ {
			axpy(-td[i*t+l], y.RowView(l), out)
		}
	}
	dst := ws.GetUninit(m, k)
	v := ws.ViewRows(h.w, 0, t)
	mat.MulTransAInto(dst, v, y)
	ws.PutView(v)
	ws.Put(y)
	dd, cd := dst.RawData(), c.RawData()
	for i := range cd {
		dd[i] += cd[i]
	}
	return dst
}

// Release returns the factorization's storage to ws; h must not be used
// afterwards.
func (h Householder) Release(ws *mat.Workspace) {
	ws.Put(h.w)
	ws.Put(h.tf)
}

// house turns x into the Householder reflector H = I − τ·v·vᵀ that maps x to
// β·e₁: x[0] becomes β and x[1:] the essential part of v (v[0] = 1). It
// returns τ, which is 0 (H = I) for a zero x. The sign of β is chosen
// against x[0] to avoid cancellation.
func house(x []float64) float64 {
	norm := math.Sqrt(dot(x, x))
	if norm == 0 {
		return 0
	}
	alpha := x[0]
	beta := -norm
	if alpha < 0 {
		beta = norm
	}
	scal(1/(alpha-beta), x[1:])
	x[0] = beta
	return (beta - alpha) / beta
}

// dot is the inner product of equal-length x and y, four partial sums wide.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes y += alpha·x for equal-length x and y.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// scal computes x *= alpha.
func scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// SolveUpperTriangular solves R·x = b for upper-triangular R (n×n). It
// panics if R is singular to working precision or the dimensions mismatch.
func SolveUpperTriangular(r *mat.Dense, b []float64) []float64 {
	n, c := r.Dims()
	if n != c {
		panic(fmt.Sprintf("linalg: SolveUpperTriangular needs a square matrix, got %dx%d", n, c))
	}
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveUpperTriangular rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			panic("linalg: SolveUpperTriangular: singular matrix")
		}
		x[i] = s / d
	}
	return x
}

// LeastSquares solves min‖A·x − b‖₂ via QR for an m×n matrix with m ≥ n of
// full column rank.
func LeastSquares(a *mat.Dense, b []float64) []float64 {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("linalg: LeastSquares needs m >= n, got %dx%d", m, n))
	}
	if len(b) != m {
		panic(fmt.Sprintf("linalg: LeastSquares rhs length %d, want %d", len(b), m))
	}
	q, r := QR(a)
	qtb := mat.MulVecTrans(q, b)
	return SolveUpperTriangular(r, qtb)
}

// NormalizeQRSigns flips the signs of Q's columns and R's rows in place so
// that every diagonal entry of R is non-negative. For a full-column-rank
// matrix this makes the thin QR factorization unique, which lets the
// distributed TSQR reproduce the serial factorization bit-for-bit in exact
// arithmetic — the principled version of the `qglobal = -qglobal` "trick
// for consistency" in the paper's Listing 4.
func NormalizeQRSigns(q, r *mat.Dense) {
	t := r.Rows()
	if q.Cols() < t {
		t = q.Cols()
	}
	for k := 0; k < t; k++ {
		if r.At(k, k) >= 0 {
			continue
		}
		for j := 0; j < r.Cols(); j++ {
			r.Set(k, j, -r.At(k, j))
		}
		for i := 0; i < q.Rows(); i++ {
			q.Set(i, k, -q.At(i, k))
		}
	}
}
