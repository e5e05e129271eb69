package core

import (
	"math"
	"sync"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/testutil"
)

// Long-stream numerical gate over the one streaming update, run through
// both of its QR strategies: the serial engine (local Householder QR) and
// the parallel engine on two in-process ranks (gather TSQR). Both start
// from the same initial factorization, then ingest the same stream: 3000
// Gaussian batches scaled from 1e-6 to 1e6, and shorter streams of
// rank-deficient and interleaved all-zero batches over the same scale
// sweep. The modes must stay orthonormal to 1e-12 throughout, and the two
// strategies must agree to 1e-12 relative to the leading singular value
// (for the modes, after scaling by their conditioning).

const (
	driftRows  = 512
	driftBatch = 8
	driftK     = 10
	driftFF    = 0.95
	driftTol   = 1e-12
	// driftEvery is how often (in updates) the parallel run gathers its
	// modes for comparison with the serial run.
	driftEvery = 100
)

// driftInputs are the gated streams and their update counts; the race
// build runs a tenth of each.
var driftInputs = []struct {
	kind    string
	updates int
}{
	{"scaled", 3000},
	{"rank-deficient", 1000},
	{"all-zero", 1000},
}

// driftBatchAt returns update i of n's batch (i = 0 is the initial batch):
// a Gaussian 512×8 block scaled log-uniformly from 1e-6 to 1e6 across the
// stream, shaped by kind.
func driftBatchAt(kind string, i, n int) *mat.Dense {
	rng := testutil.NewRand(int64(1000 + i))
	var a *mat.Dense
	switch {
	case i > 0 && kind == "all-zero" && i%3 != 0:
		return mat.New(driftRows, driftBatch)
	case i > 0 && kind == "rank-deficient":
		// Rank 2: every column is a combination of the same two vectors.
		a = mat.Mul(testutil.RandomDense(driftRows, 2, rng), testutil.RandomDense(2, driftBatch, rng))
	default:
		a = testutil.RandomDense(driftRows, driftBatch, rng)
	}
	exp := -6 + 12*float64(i)/float64(n)
	mat.ScaleInPlace(math.Pow(10, exp), a)
	return a
}

// orthonormalityError is ‖UᵀU − I‖_F.
func orthonormalityError(u *mat.Dense) float64 {
	g := mat.MulTransA(u, u)
	for i := 0; i < g.Rows(); i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return g.FroNorm()
}

// driftSnapshot is one comparison point of a run.
type driftSnapshot struct {
	modes    *mat.Dense
	singular []float64
}

func TestLongStreamDriftGate(t *testing.T) {
	opts := Options{K: driftK, ForgetFactor: driftFF}
	for _, in := range driftInputs {
		kind, updates := in.kind, in.updates
		if raceEnabled {
			updates /= 10
		}
		t.Run(kind, func(t *testing.T) {
			// Serial: local QR strategy, orthonormality checked every update.
			ser := NewSerial(opts)
			ser.Initialize(driftBatchAt(kind, 0, updates))
			init := driftSnapshot{ser.Modes().Clone(), append([]float64(nil), ser.SingularValues()...)}
			want := map[int]driftSnapshot{}
			worst := 0.0
			for i := 1; i <= updates; i++ {
				ser.IncorporateData(driftBatchAt(kind, i, updates))
				if e := orthonormalityError(ser.Modes()); e > worst {
					worst = e
					if e > driftTol {
						t.Fatalf("serial update %d: ‖UᵀU − I‖ = %g, want ≤ %g", i, e, driftTol)
					}
				}
				if i%driftEvery == 0 {
					want[i] = driftSnapshot{ser.Modes().Clone(), append([]float64(nil), ser.SingularValues()...)}
				}
			}

			// Parallel: TSQR strategy from the same initial state.
			got := map[int]driftSnapshot{}
			var mu sync.Mutex
			blocks := splitRows(init.modes, 2)
			mpi.MustRun(2, func(c *mpi.Comm) {
				eng := NewParallel(c, opts)
				eng.ulocal = blocks[c.Rank()].Clone()
				eng.singular = append([]float64(nil), init.singular...)
				eng.rows = eng.ulocal.Rows()
				r0 := 0
				if c.Rank() == 1 {
					r0 = blocks[0].Rows()
				}
				for i := 1; i <= updates; i++ {
					eng.IncorporateData(driftBatchAt(kind, i, updates).SliceRows(r0, r0+eng.rows))
					if i%driftEvery == 0 {
						modes := eng.GatherModes()
						if c.Rank() == 0 {
							mu.Lock()
							got[i] = driftSnapshot{modes, append([]float64(nil), eng.SingularValues()...)}
							mu.Unlock()
						}
					}
				}
			})

			for i := driftEvery; i <= updates; i += driftEvery {
				w, g := want[i], got[i]
				if e := orthonormalityError(g.modes); e > driftTol {
					t.Fatalf("parallel update %d: ‖UᵀU − I‖ = %g, want ≤ %g", i, e, driftTol)
				}
				if len(w.singular) != len(g.singular) {
					t.Fatalf("update %d: %d serial vs %d parallel singular values", i, len(w.singular), len(g.singular))
				}
				scale := w.singular[0]
				for j := range w.singular {
					if d := math.Abs(w.singular[j]-g.singular[j]) / scale; d > driftTol {
						t.Fatalf("update %d: σ_%d differs by %g relative to σ_1, want ≤ %g", i, j+1, d, driftTol)
					}
				}
				// Modes are compared through their conditioning: by
				// Davis–Kahan a perturbation δ turns mode j by about δ/gap_j,
				// gap_j being its distance to the neighbouring singular
				// values, so the gate is ‖u_j − u_j′‖·gap_j/σ_1 ≤ 1e-12.
				for j := range w.singular {
					gap := math.Inf(1)
					if j > 0 {
						gap = w.singular[j-1] - w.singular[j]
					}
					if j+1 < len(w.singular) {
						gap = math.Min(gap, w.singular[j]-w.singular[j+1])
					}
					d := testutil.MaxColumnError(w.modes.SliceCols(j, j+1), g.modes.SliceCols(j, j+1))
					if d*gap/scale > driftTol {
						t.Fatalf("update %d: mode %d differs by %g at relative gap %g, want ≤ %g/gap", i, j+1, d, gap/scale, driftTol)
					}
				}
			}
			t.Logf("%s: %d updates, worst serial ‖UᵀU − I‖ = %.2g", kind, updates, worst)
		})
	}
}
