package stream

import (
	"testing"

	"goparsvd/internal/testutil"
)

func BenchmarkInitialize(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(4096, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(Options{K: 10, FF: 0.95}).Initialize(a)
	}
}

func BenchmarkIncorporateDeterministic(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(2)
	first := testutil.RandomDense(4096, 64, rng)
	next := testutil.RandomDense(4096, 64, rng)
	s := New(Options{K: 10, FF: 0.95}).Initialize(first)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

func BenchmarkIncorporateSteadyStateAllocs(b *testing.B) {
	// Regression gate for the zero-allocation streaming hot path: after a
	// warmup update fills the iteration workspace, steady-state
	// IncorporateData calls must report 0 allocs/op — every temporary,
	// including the modes matrix, is recycled through the workspace.
	b.ReportAllocs()
	rng := testutil.NewRand(4)
	first := testutil.RandomDense(2048, 32, rng)
	next := testutil.RandomDense(2048, 32, rng)
	s := New(Options{K: 10, FF: 0.95}).Initialize(first)
	s.IncorporateData(next) // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

func BenchmarkIncorporateLowRank(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(3)
	first := testutil.RandomDense(4096, 64, rng)
	next := testutil.RandomDense(4096, 64, rng)
	s := New(Options{K: 10, FF: 0.95, LowRank: true}).Initialize(first)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IncorporateData(next)
	}
}

func BenchmarkIncorporatePairSteadyState(b *testing.B) {
	// Regression gate for the zero-allocation sketched update: a factor
	// pair Q·S (Q 2048×20 orthonormal, S 20×16) stands in for a 2048×16
	// batch against K = 10 modes. Once the workspace is warm, Push applies
	// the pair without forming the product and reports 0 allocs/op.
	b.ReportAllocs()
	rng := testutil.NewRand(5)
	q := testutil.RandomOrthonormal(2048, 20, rng)
	sk := testutil.RandomDense(20, 16, rng)
	s := New(Options{K: 10, FF: 0.95}).Initialize(testutil.RandomDense(2048, 16, rng))
	s.Push(q, sk) // warm the workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(q, sk)
	}
}
