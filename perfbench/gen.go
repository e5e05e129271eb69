package main

import (
	"math"
	"math/rand/v2"

	parsvd "goparsvd"
)

// Seeded input generation. Every input the program under test sees is
// made here from the --seed argument, with the benchmark's own loops
// (no call into the program), so the same seed always yields the same
// bytes and an input bug cannot hide a program bug.
//
// All data is exactly low-rank: A = W·G with W an M×r orthonormal basis
// and G = diag(s)·C, s falling geometrically over `decades` decades and
// C Gaussian. Because W has orthonormal columns, σ(A) = σ(G), so the
// direct reference spectrum of a whole stream is a TruncatedSVD of the
// small r×N coefficient matrix instead of the M×N data.

// rngFor returns the generator for one named input stream of a seed, so
// adding a stream never shifts the values of another.
func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// Input stream identifiers for rngFor.
const (
	streamBasis uint64 = iota + 1
	streamBatches
	streamWide
	streamProbe
	streamShards
	streamProbeShards
)

// lowRank is the generating subspace of one workload's data.
type lowRank struct {
	w *parsvd.Matrix // M×r, orthonormal columns
	s []float64      // r scales, descending
}

func newLowRank(rng *rand.Rand, m, r int, decades float64) lowRank {
	s := make([]float64, r)
	for i := range s {
		e := 0.0
		if r > 1 {
			e = decades * float64(i) / float64(r-1)
		}
		s[i] = math.Pow(10, -e)
	}
	return lowRank{w: orthonormal(rng, m, r), s: s}
}

// orthonormal returns an m×r matrix with orthonormal columns: modified
// Gram–Schmidt, applied twice, on a Gaussian matrix.
func orthonormal(rng *rand.Rand, m, r int) *parsvd.Matrix {
	cols := make([][]float64, r)
	for j := range cols {
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		for pass := 0; pass < 2; pass++ {
			for _, q := range cols[:j] {
				d := dot(q, c)
				for i := range c {
					c[i] -= d * q[i]
				}
			}
		}
		n := math.Sqrt(dot(c, c))
		for i := range c {
			c[i] /= n
		}
		cols[j] = c
	}
	out := parsvd.NewMatrix(m, r)
	for j, c := range cols {
		out.SetCol(j, c)
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// coeffs draws the r×b coefficient block G = diag(s)·C of one batch.
func (lr lowRank) coeffs(rng *rand.Rand, b int) *parsvd.Matrix {
	r := len(lr.s)
	g := parsvd.NewMatrix(r, b)
	for i := 0; i < r; i++ {
		row := g.RowView(i)
		for j := range row {
			row[j] = lr.s[i] * rng.NormFloat64()
		}
	}
	return g
}

// expand materializes W·g (M×b).
func (lr lowRank) expand(g *parsvd.Matrix) *parsvd.Matrix {
	m, r := lr.w.Dims()
	b := g.Cols()
	a := parsvd.NewMatrix(m, b)
	for i := 0; i < m; i++ {
		wi := lr.w.RowView(i)
		ai := a.RowView(i)
		for k := 0; k < r; k++ {
			wk := wi[k]
			gk := g.RowView(k)
			for j := range ai {
				ai[j] += wk * gk[j]
			}
		}
	}
	return a
}

// batchPool is a fixed set of generated batches a workload cycles
// through, with the coefficient block of each.
type batchPool struct {
	data []*parsvd.Matrix
	g    []*parsvd.Matrix
}

func (lr lowRank) pool(rng *rand.Rand, n, b int) batchPool {
	var p batchPool
	for i := 0; i < n; i++ {
		g := lr.coeffs(rng, b)
		p.g = append(p.g, g)
		p.data = append(p.data, lr.expand(g))
	}
	return p
}

// referenceSpectrum is the direct reference: the top-k singular values
// of the data whose coefficient blocks are gs, by a TruncatedSVD of the
// concatenated r×N coefficient matrix.
func referenceSpectrum(gs []*parsvd.Matrix, k int) ([]float64, error) {
	_, s, _, err := parsvd.TruncatedSVD(parsvd.HStack(gs...), k)
	return s, err
}

// spectrumDigits is −log10 of the largest relative singular-value error
// of got against want (both descending). A missing value counts as a
// total loss (0 digits); agreement to the last bit caps at 17 digits.
func spectrumDigits(got, want []float64) float64 {
	worst := 0.0
	for i, w := range want {
		if i >= len(got) {
			return 0
		}
		e := math.Abs(got[i]-w) / math.Abs(w)
		if math.IsNaN(e) {
			return 0
		}
		worst = math.Max(worst, e)
	}
	if worst < 1e-17 {
		return 17
	}
	return -math.Log10(worst)
}
