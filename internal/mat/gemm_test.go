package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The naive i-k-j kernels below are the retained reference implementations
// the blocked GEMM is property-tested against: any packing, tiling or
// edge-masking bug shows up as a mismatch beyond accumulation roundoff.

func refMul(a, b *Dense) *Dense {
	out := New(a.rows, b.cols)
	n, p := a.cols, b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*n : (i+1)*n]
		orow := out.data[i*p : (i+1)*p]
		for k, av := range arow {
			brow := b.data[k*p : (k+1)*p]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMulTransA(a, b *Dense) *Dense { return refMul(a.T(), b) }

func refMulTransB(a, b *Dense) *Dense { return refMul(a, b.T()) }

// relTol scales the comparison tolerance by the operand magnitudes and the
// inner-dimension length, the standard backward-error yardstick for a
// reordered summation.
func relTol(k int, a, b *Dense) float64 {
	scale := a.MaxAbs() * b.MaxAbs() * float64(k+1)
	if scale < 1 {
		scale = 1
	}
	return 1e-13 * scale
}

func maxAbsDiff(a, b *Dense) float64 {
	d := 0.0
	for i, v := range a.data {
		if ad := math.Abs(v - b.data[i]); ad > d {
			d = ad
		}
	}
	return d
}

// TestGEMMMatchesNaiveReference sweeps randomized and adversarial shapes —
// 1×1, primes straddling the 4×4 micro-tile and the mc/kc/nc cache blocks,
// m≫n and n≫m panels — through all three product variants and checks the
// blocked kernel against the naive reference within 1e-13 (scaled).
func TestGEMMMatchesNaiveReference(t *testing.T) {
	shapes := [][3]int{
		// m, k, n: tiny and sub-micro-tile edges.
		{1, 1, 1}, {1, 7, 1}, {2, 3, 5}, {3, 4, 3}, {4, 4, 4}, {5, 5, 5},
		// Primes around the mr/nr = 4 tile and the small-product cutoff.
		{13, 17, 19}, {31, 29, 37}, {41, 43, 47},
		// Straddling the kc=256/mc=128 block boundaries.
		{127, 257, 63}, {129, 255, 65}, {128, 256, 4}, {260, 130, 520},
		// Tall-skinny and short-fat panels (the library's dominant shapes).
		{1024, 17, 11}, {997, 64, 10}, {8, 16, 512}, {3, 500, 3},
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randomDense(m, k, rng)
			b := randomDense(k, n, rng)
			tol := relTol(k, a, b)
			if d := maxAbsDiff(Mul(a, b), refMul(a, b)); d > tol {
				t.Errorf("Mul diverges from reference by %g (tol %g)", d, tol)
			}
			at := randomDense(k, m, rng)
			tol = relTol(k, at, b)
			if d := maxAbsDiff(MulTransA(at, b), refMulTransA(at, b)); d > tol {
				t.Errorf("MulTransA diverges from reference by %g (tol %g)", d, tol)
			}
			bt := randomDense(n, k, rng)
			tol = relTol(k, a, bt)
			if d := maxAbsDiff(MulTransB(a, bt), refMulTransB(a, bt)); d > tol {
				t.Errorf("MulTransB diverges from reference by %g (tol %g)", d, tol)
			}
		})
	}
}

// TestGEMMRandomizedShapes fuzzes dimensions to hit arbitrary edge-tile
// combinations that the fixed table above may miss.
func TestGEMMRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(90)
		k := 1 + rng.Intn(90)
		n := 1 + rng.Intn(90)
		a := randomDense(m, k, rng)
		b := randomDense(k, n, rng)
		tol := relTol(k, a, b)
		if d := maxAbsDiff(Mul(a, b), refMul(a, b)); d > tol {
			t.Fatalf("trial %d (%dx%dx%d): Mul diverges by %g (tol %g)", trial, m, k, n, d, tol)
		}
	}
}

// TestGEMMBlockedPathDirect drives the packed kernel below the small-product
// cutoff, where Mul would route to the naive loop, so edge tiles of every
// size are exercised in the blocked code itself — on every kernel this CPU
// can run.
func TestGEMMBlockedPathDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, name := range AvailableKernels() {
		restore, ok := ForceKernel(name)
		if !ok {
			t.Fatalf("ForceKernel(%q) refused an advertised kernel", name)
		}
		for _, sh := range [][3]int{{1, 1, 1}, {2, 5, 3}, {4, 4, 4}, {7, 11, 13}, {5, 3, 17}} {
			m, k, n := sh[0], sh[1], sh[2]
			a := randomDense(m, k, rng)
			b := randomDense(k, n, rng)
			out := New(m, n)
			BlockedMulInto(out, a, b)
			if d := maxAbsDiff(out, refMul(a, b)); d > relTol(k, a, b) {
				t.Errorf("%s %dx%dx%d: blocked kernel diverges by %g", name, m, k, n, d)
			}
		}
		restore()
	}
}

// BenchmarkMulSquare512Naive times the retained reference kernel on the
// same workload as BenchmarkMulSquare512, so `go test -bench MulSquare512`
// reports the blocked kernel's speedup directly.
func BenchmarkMulSquare512Naive(b *testing.B) {
	b.ReportAllocs()
	x := randomDense(512, 512, rand.New(rand.NewSource(10)))
	y := randomDense(512, 512, rand.New(rand.NewSource(11)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMul(x, y)
	}
}

// TestIntoVariantsMatchAllocating pins the *Into entry points to their
// allocating counterparts.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomDense(23, 17, rng)
	b := randomDense(17, 29, rng)
	out := New(23, 29)
	out.Fill(3.5) // stale contents must be overwritten
	MulInto(out, a, b)
	if !EqualApprox(out, Mul(a, b), 0) {
		t.Error("MulInto != Mul")
	}

	d := make([]float64, 17)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	sd := New(23, 17)
	MulDiagInto(sd, a, d)
	if !EqualApprox(sd, MulDiag(a, d), 0) {
		t.Error("MulDiagInto != MulDiag")
	}
	MulDiagScaledInto(sd, 0.5, a, d)
	if !EqualApprox(sd, Scale(0.5, MulDiag(a, d)), 1e-15) {
		t.Error("MulDiagScaledInto != 0.5·MulDiag")
	}

	sc := New(23, 17)
	ScaleInto(sc, -2, a)
	if !EqualApprox(sc, Scale(-2, a), 0) {
		t.Error("ScaleInto != Scale")
	}

	h := New(23, 17+17)
	HStackInto(h, a, nil, sc)
	if !EqualApprox(h, HStack(a, sc), 0) {
		t.Error("HStackInto != HStack")
	}
}

// TestWorkspaceReuse checks the buffer pool recycles matching storage and
// that a nil workspace degrades to plain allocation.
func TestWorkspaceReuse(t *testing.T) {
	var ws Workspace
	m := ws.Get(8, 8)
	m.Fill(1)
	ws.Put(m)
	m2 := ws.Get(4, 16) // same capacity, different shape
	if r, c := m2.Dims(); r != 4 || c != 16 {
		t.Fatalf("recycled matrix has shape %dx%d", r, c)
	}
	if m2.MaxAbs() != 0 {
		t.Error("Workspace.Get returned a non-zeroed matrix")
	}
	u := ws.GetUninit(2, 2)
	if r, c := u.Dims(); r != 2 || c != 2 {
		t.Fatalf("GetUninit shape %dx%d", r, c)
	}

	f := ws.GetFloats(10)
	if len(f) != 10 {
		t.Fatalf("GetFloats length %d", len(f))
	}
	ws.PutFloats(f)
	ix := ws.GetInts(5)
	if len(ix) != 5 {
		t.Fatalf("GetInts length %d", len(ix))
	}
	ws.PutInts(ix)

	var nilWS *Workspace
	n := nilWS.Get(3, 3)
	if r, c := n.Dims(); r != 3 || c != 3 {
		t.Fatal("nil workspace Get failed")
	}
	nilWS.Put(n) // must be a no-op, not a crash
	nilWS.PutFloats(nilWS.GetFloats(4))
	nilWS.PutInts(nilWS.GetInts(4))
}

// TestMulAddIntoAccumulates: dst += a·b on both the naive and the packed
// route, including ragged edge strips, agrees with the product added
// separately.
func TestMulAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][3]int{{3, 2, 4}, {37, 8, 300}, {130, 19, 11}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, c := randomDense(m, k, rng), randomDense(k, n, rng), randomDense(m, n, rng)
		got := c.Clone()
		MulAddInto(got, a, b)
		want := Add(c, Mul(a, b))
		if !EqualApprox(got, want, 1e-12) {
			t.Errorf("%dx%dx%d: MulAddInto != c + a·b", m, k, n)
		}
	}
}

// TestWorkspaceViewRows: a pooled view aliases the rows it names, and a
// returned header is recycled without keeping the old matrix reachable.
func TestWorkspaceViewRows(t *testing.T) {
	var ws Workspace
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	v := ws.ViewRows(m, 1, 3)
	if r, c := v.Dims(); r != 2 || c != 2 || v.At(0, 0) != 3 {
		t.Fatalf("view is %dx%d starting at %g", r, c, v.At(0, 0))
	}
	v.Set(1, 1, 9)
	if m.At(2, 1) != 9 {
		t.Fatal("view does not share the matrix's storage")
	}
	ws.PutView(v)
	if v.data != nil {
		t.Fatal("returned view still references the matrix")
	}
	if w := ws.ViewRows(m, 0, 1); w != v || w.At(0, 1) != 2 {
		t.Fatal("view header not recycled")
	}
	var nilWS *Workspace
	nilWS.PutView(nilWS.ViewRows(m, 0, 3)) // plain allocation, no crash
}
