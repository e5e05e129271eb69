package rla

import (
	"math"
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// mustAdaptiveRangeFinder / mustAdaptiveSVD unwrap the error returns for
// the tests that feed known-valid arguments.
func mustAdaptiveRangeFinder(t *testing.T, a *mat.Dense, tol float64, block int, opts Options) *mat.Dense {
	t.Helper()
	q, err := AdaptiveRangeFinder(a, tol, block, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustAdaptiveSVD(t *testing.T, a *mat.Dense, tol float64, block int, opts Options) (*mat.Dense, []float64, *mat.Dense) {
	t.Helper()
	u, s, v, err := AdaptiveSVD(a, tol, block, opts)
	if err != nil {
		t.Fatal(err)
	}
	return u, s, v
}

func TestAdaptiveRangeFinderStopsEarlyOnLowRank(t *testing.T) {
	// An exactly rank-4 matrix must be captured with a basis close to 4
	// columns (one block may overshoot), far below min(m,n).
	rng := testutil.NewRand(41)
	a, _ := testutil.RandomLowRank(80, 40, 4, 0, rng)
	q := mustAdaptiveRangeFinder(t, a, 1e-8, 3, DefaultOptions())
	if q.Cols() > 12 {
		t.Fatalf("basis has %d columns for a rank-4 matrix", q.Cols())
	}
	proj := mat.Mul(q, mat.MulTransA(q, a))
	if rel := mat.Sub(a, proj).FroNorm() / a.FroNorm(); rel > 1e-8 {
		t.Fatalf("residual %g above tolerance", rel)
	}
}

func TestAdaptiveRangeFinderMeetsTolerance(t *testing.T) {
	// For a decaying spectrum the actual residual must respect the
	// requested tolerance (the estimate upper-bounds the true residual
	// w.h.p., so this is conservative).
	rng := testutil.NewRand(42)
	u := testutil.RandomOrthonormal(60, 20, rng)
	v := testutil.RandomOrthonormal(30, 20, rng)
	s := make([]float64, 20)
	for i := range s {
		s[i] = math.Pow(0.4, float64(i))
	}
	a := mat.MulTransB(mat.MulDiag(u, s), v)
	for _, tol := range []float64{1e-1, 1e-3, 1e-6} {
		q := mustAdaptiveRangeFinder(t, a, tol, 4, DefaultOptions())
		proj := mat.Mul(q, mat.MulTransA(q, a))
		resid := mat.Sub(a, proj).FroNorm()
		if resid > tol*math.Sqrt(20) { // Fro ≤ sqrt(rank)·spectral
			t.Fatalf("tol %g: residual %g, basis %d cols", tol, resid, q.Cols())
		}
	}
}

func TestAdaptiveRangeFinderTighterTolNeedsWiderBasis(t *testing.T) {
	rng := testutil.NewRand(43)
	u := testutil.RandomOrthonormal(60, 25, rng)
	v := testutil.RandomOrthonormal(40, 25, rng)
	s := make([]float64, 25)
	for i := range s {
		s[i] = math.Pow(0.6, float64(i))
	}
	a := mat.MulTransB(mat.MulDiag(u, s), v)
	loose := mustAdaptiveRangeFinder(t, a, 1e-1, 2, DefaultOptions()).Cols()
	tight := mustAdaptiveRangeFinder(t, a, 1e-6, 2, DefaultOptions()).Cols()
	if tight <= loose {
		t.Fatalf("tight tol gave %d cols, loose gave %d", tight, loose)
	}
}

func TestAdaptiveRangeFinderOrthonormal(t *testing.T) {
	rng := testutil.NewRand(44)
	a := testutil.RandomDense(50, 30, rng)
	q := mustAdaptiveRangeFinder(t, a, 1e-2, 5, DefaultOptions())
	testutil.CheckOrthonormalColumns(t, "Q", q, 1e-10)
}

func TestAdaptiveRangeFinderZeroMatrix(t *testing.T) {
	a := mat.New(20, 10)
	q := mustAdaptiveRangeFinder(t, a, 1e-6, 4, DefaultOptions())
	if q.Cols() != 0 {
		t.Fatalf("zero matrix produced %d basis columns", q.Cols())
	}
}

func TestAdaptiveRangeFinderSaturates(t *testing.T) {
	// Demanding an impossible tolerance on a full-rank matrix must stop
	// at min(m, n) columns, not loop.
	rng := testutil.NewRand(45)
	a := testutil.RandomDense(20, 8, rng)
	q := mustAdaptiveRangeFinder(t, a, 1e-300, 3, DefaultOptions())
	if q.Cols() != 8 {
		t.Fatalf("saturated basis has %d cols, want 8", q.Cols())
	}
}

func TestAdaptiveRangeFinderInvalidArgsError(t *testing.T) {
	// Invalid arguments are reported as errors, never panics: they reach
	// this package straight from public facade options.
	a := mat.New(4, 4)
	for name, fn := range map[string]func() error{
		"tol": func() error {
			_, err := AdaptiveRangeFinder(a, 0, 2, DefaultOptions())
			return err
		},
		"block": func() error {
			_, err := AdaptiveRangeFinder(a, 1e-3, 0, DefaultOptions())
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", name, r)
				}
			}()
			if err := fn(); err == nil {
				t.Fatalf("%s did not error", name)
			}
		})
	}
}

func TestAdaptiveSVDMatchesDeterministicSpectrum(t *testing.T) {
	rng := testutil.NewRand(46)
	a, _ := testutil.RandomLowRank(60, 30, 6, 0, rng)
	u, s, v := mustAdaptiveSVD(t, a, 1e-9, 4, DefaultOptions())
	_, sDet, _ := linalg.SVD(a)
	for i := 0; i < 6; i++ {
		if math.Abs(s[i]-sDet[i]) > 1e-9*(1+sDet[0]) {
			t.Fatalf("s[%d] = %g, want %g", i, s[i], sDet[i])
		}
	}
	recon := mat.MulTransB(mat.MulDiag(u, s), v)
	if rel := mat.Sub(a, recon).FroNorm() / a.FroNorm(); rel > 1e-9 {
		t.Fatalf("reconstruction error %g", rel)
	}
}

func TestAdaptiveSVDZeroMatrix(t *testing.T) {
	u, s, v := mustAdaptiveSVD(t, mat.New(6, 3), 1e-6, 2, DefaultOptions())
	if len(s) != 0 || u.Cols() != 0 || v.Cols() != 0 {
		t.Fatal("zero matrix should produce empty factors")
	}
}

// TestAdaptiveRangeFinderScaleInvariant: scaling A and tol together must
// not change the basis. An absolute cutoff on the R diagonal dropped every
// direction of a tiny-scaled matrix and returned an empty basis.
func TestAdaptiveRangeFinderScaleInvariant(t *testing.T) {
	rng := testutil.NewRand(44)
	a, _ := testutil.RandomLowRank(500, 60, 8, 0, rng)
	widths := map[float64]int{}
	for _, scale := range []float64{1, 1e-15} {
		q := mustAdaptiveRangeFinder(t, mat.Scale(scale, a), 1e-8*scale, 4, DefaultOptions())
		widths[scale] = q.Cols()
	}
	if widths[1] != 8 || widths[1e-15] != widths[1] {
		t.Fatalf("basis width %d at scale 1, %d at scale 1e-15; want 8 at both", widths[1], widths[1e-15])
	}
}
