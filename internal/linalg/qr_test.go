package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func TestQRTall(t *testing.T) {
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(20, 5, rng)
	q, r := QR(a)
	if q.Rows() != 20 || q.Cols() != 5 || r.Rows() != 5 || r.Cols() != 5 {
		t.Fatalf("thin QR shapes: Q %dx%d, R %dx%d", q.Rows(), q.Cols(), r.Rows(), r.Cols())
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRSquare(t *testing.T) {
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(6, 6, rng)
	q, r := QR(a)
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRWide(t *testing.T) {
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(4, 9, rng)
	q, r := QR(a)
	if q.Rows() != 4 || q.Cols() != 4 || r.Rows() != 4 || r.Cols() != 9 {
		t.Fatalf("wide QR shapes: Q %dx%d, R %dx%d", q.Rows(), q.Cols(), r.Rows(), r.Cols())
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-12)
	testutil.CheckUpperTriangular(t, "R", r, 1e-13)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-12) {
		t.Fatal("QR reconstruction failed")
	}
}

func TestQRIdentity(t *testing.T) {
	q, r := QR(mat.Eye(4))
	if !mat.EqualApprox(mat.Mul(q, r), mat.Eye(4), 1e-14) {
		t.Fatal("QR of identity failed")
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := mat.New(5, 3)
	q, r := QR(a)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-14) {
		t.Fatal("QR of zero matrix must reconstruct zero")
	}
	if r.MaxAbs() != 0 {
		t.Fatal("R of zero matrix must be zero")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank 1.
	a := mat.NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	q, r := QR(a)
	if !mat.EqualApprox(mat.Mul(q, r), a, 1e-13) {
		t.Fatal("QR of rank-deficient matrix must still reconstruct")
	}
	if math.Abs(r.At(1, 1)) > 1e-13 {
		t.Fatalf("R[1,1] should be ~0 for rank-1 input, got %g", r.At(1, 1))
	}
}

func TestQRSingleColumn(t *testing.T) {
	a := mat.NewFromRows([][]float64{{3}, {4}})
	q, r := QR(a)
	if math.Abs(math.Abs(r.At(0, 0))-5) > 1e-14 {
		t.Fatalf("|R[0,0]| = %g, want 5", math.Abs(r.At(0, 0)))
	}
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-14)
}

func TestQRDeterministic(t *testing.T) {
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(10, 4, rng)
	q1, r1 := QR(a)
	q2, r2 := QR(a)
	if !mat.EqualApprox(q1, q2, 0) || !mat.EqualApprox(r1, r2, 0) {
		t.Fatal("QR must be deterministic")
	}
}

func TestQRDoesNotMutateInput(t *testing.T) {
	rng := testutil.NewRand(5)
	a := testutil.RandomDense(8, 3, rng)
	before := a.Clone()
	QR(a)
	if !mat.EqualApprox(a, before, 0) {
		t.Fatal("QR mutated its input")
	}
}

// Property-based: QR invariants hold over random shapes.
func TestPropertyQRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		a := testutil.RandomDense(m, n, rng)
		q, r := QR(a)
		// Reconstruction.
		if !mat.EqualApprox(mat.Mul(q, r), a, 1e-11) {
			return false
		}
		// Orthonormality: QᵀQ = I.
		g := mat.MulTransA(q, q)
		return mat.EqualApprox(g, mat.Eye(q.Cols()), 1e-11)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: testutil.NewRand(6)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSolveUpperTriangular(t *testing.T) {
	r := mat.NewFromRows([][]float64{{2, 1}, {0, 3}})
	x := SolveUpperTriangular(r, []float64{5, 6})
	// 3x₂ = 6 → x₂ = 2; 2x₁ + 2 = 5 → x₁ = 1.5.
	if math.Abs(x[0]-1.5) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("solve = %v", x)
	}
}

func TestSolveUpperTriangularSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("singular solve did not panic")
		}
	}()
	SolveUpperTriangular(mat.NewFromRows([][]float64{{1, 2}, {0, 0}}), []float64{1, 1})
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system: the residual must be ~0.
	a := mat.NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	xTrue := []float64{2, -3}
	b := mat.MulVec(a, xTrue)
	x := LeastSquares(a, b)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]+3) > 1e-12 {
		t.Fatalf("LeastSquares = %v, want %v", x, xTrue)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	rng := testutil.NewRand(7)
	a := testutil.RandomDense(30, 4, rng)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := LeastSquares(a, b)
	res := residualNorm(a, x, b)
	// Perturbing the solution in any coordinate direction must not shrink
	// the residual (first-order optimality check).
	for j := 0; j < 4; j++ {
		for _, eps := range []float64{1e-4, -1e-4} {
			xp := append([]float64(nil), x...)
			xp[j] += eps
			if residualNorm(a, xp, b) < res-1e-12 {
				t.Fatalf("residual decreased when perturbing x[%d]", j)
			}
		}
	}
}

func residualNorm(a *mat.Dense, x, b []float64) float64 {
	ax := mat.MulVec(a, x)
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// reflectorQ forms the thin Q of a factorization the slow, independent
// way: the reflectors H_j = I − τ_j·v_j·v_jᵀ applied one at a time, in
// reverse order, to [I; 0]. It checks T's recurrence as well as MulQ.
func reflectorQ(h Householder) *mat.Dense {
	m, t := h.w.Cols(), h.tf.Rows()
	q := mat.New(m, t)
	for j := 0; j < t; j++ {
		q.Set(j, j, 1)
	}
	for j := t - 1; j >= 0; j-- {
		v, tau := h.w.RowView(j), h.tf.At(j, j)
		for c := 0; c < t; c++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += v[i] * q.At(i, c)
			}
			for i := 0; i < m; i++ {
				q.Set(i, c, q.At(i, c)-tau*s*v[i])
			}
		}
	}
	return q
}

// TestHouseholderMulQMatchesExplicit checks the implicit Q·[C; 0] against
// the reflector product Q·C over the shapes the blocking must get right:
// wide, square, fewer rows than a panel, widths that are not a multiple of
// the panel, zero columns (τ = 0) and rank-deficient inputs. It also checks
// QᵀQ = I and A = Q·R for the explicit QRWith.
func TestHouseholderMulQMatchesExplicit(t *testing.T) {
	rng := testutil.NewRand(7)
	zeroCols := testutil.RandomDense(40, 13, rng)
	for _, j := range []int{0, 5, 12} {
		for i := 0; i < 40; i++ {
			zeroCols.Set(i, j, 0)
		}
	}
	lowRank, _ := testutil.RandomLowRank(60, 21, 4, 0, rng)
	dup := testutil.RandomDense(30, 10, rng)
	for i := 0; i < 30; i++ {
		dup.Set(i, 9, dup.At(i, 2))
		dup.Set(i, 8, 0)
	}
	cases := map[string]*mat.Dense{
		"wide":           testutil.RandomDense(5, 19, rng),
		"wide-panels":    testutil.RandomDense(11, 30, rng),
		"square":         testutil.RandomDense(17, 17, rng),
		"below-panel":    testutil.RandomDense(qrPanel-3, 2, rng),
		"one-by-one":     testutil.RandomDense(1, 1, rng),
		"single-column":  testutil.RandomDense(25, 1, rng),
		"odd-width":      testutil.RandomDense(90, 2*qrPanel+3, rng),
		"panel-width":    testutil.RandomDense(64, 2*qrPanel, rng),
		"update-shape":   testutil.RandomDense(300, 26, rng),
		"zero-columns":   zeroCols,
		"zero-matrix":    mat.New(12, 9),
		"rank-deficient": lowRank,
		"duplicate-col":  dup,
	}
	// Random shapes straddling the panel boundaries, wide and tall.
	for i := 0; i < 12; i++ {
		m, n := 1+rng.Intn(5*qrPanel), 1+rng.Intn(5*qrPanel)
		cases[fmt.Sprintf("random-%dx%d", m, n)] = testutil.RandomDense(m, n, rng)
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			m, n := a.Dims()
			k := min(m, n)
			var ws mat.Workspace
			h, r := FactorQR(&ws, a)
			ref := reflectorQ(h)
			crng := testutil.NewRand(int64(131*m + n))
			for _, width := range []int{1, 3, k + 2} {
				c := testutil.RandomDense(k, width, crng)
				got := h.MulQ(&ws, c)
				if d := mat.Sub(got, mat.Mul(ref, c)).MaxAbs(); d > 1e-13 {
					t.Errorf("width %d: |Q·[C;0] − Q·C| = %.3g", width, d)
				}
			}
			h.Release(&ws)
			testutil.CheckUpperTriangular(t, "R", r, 0)

			q, r := QRWith(&ws, a)
			if d := mat.Sub(mat.MulTransA(q, q), mat.Eye(k)).MaxAbs(); d > 1e-12 {
				t.Errorf("|QᵀQ − I| = %.3g", d)
			}
			if d := mat.Sub(mat.Mul(q, r), a).MaxAbs(); d > 1e-12*math.Max(1, a.MaxAbs()) {
				t.Errorf("|QR − A| = %.3g", d)
			}
		})
	}
}

// TestFactorMulQZeroAllocs: factor + apply on a warm workspace allocates
// nothing, at the streaming update's shape.
func TestFactorMulQZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := testutil.NewRand(8)
	a := testutil.RandomDense(1024, 26, rng)
	c := testutil.RandomDense(26, 10, rng)
	var ws mat.Workspace
	run := func() {
		h, r := FactorQR(&ws, a)
		out := h.MulQ(&ws, c)
		h.Release(&ws)
		ws.Put(r)
		ws.Put(out)
	}
	run() // warm the workspace
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("factor + MulQ on a warm workspace: %v allocs/run, want 0", allocs)
	}
}
