package linalg

import (
	"fmt"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

func BenchmarkQRTallSkinny(b *testing.B) {
	b.ReportAllocs()
	// The streaming update's QR shape: tall block, K+batch columns.
	rng := testutil.NewRand(1)
	a := testutil.RandomDense(8192, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}

func BenchmarkQRSquare(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(2)
	a := testutil.RandomDense(256, 256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(a)
	}
}

func BenchmarkSVDSquare128(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(3)
	a := testutil.RandomDense(128, 128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(a)
	}
}

func BenchmarkSVDTall(b *testing.B) {
	b.ReportAllocs()
	// Exercises the QR-first reduction path (m ≥ 2n).
	rng := testutil.NewRand(4)
	a := testutil.RandomDense(2048, 96, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(a)
	}
}

func BenchmarkJacobiSVD64(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(5)
	a := testutil.RandomDense(64, 64, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JacobiSVD(a)
	}
}

func BenchmarkEigSym96(b *testing.B) {
	b.ReportAllocs()
	rng := testutil.NewRand(6)
	eigs := make([]float64, 96)
	for i := range eigs {
		eigs[i] = float64(96 - i)
	}
	a := testutil.RandomSPD(96, eigs, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigSym(a)
	}
}

// BenchmarkQRUpdateShape times one streaming update's QR work on a warm
// workspace: FactorQR of the stacked [ff·UΣ | A] and the implicit mode
// product Q·[Ũ_K; 0], at the end-to-end benchmark's shape (M=8192, K+B=26)
// and the 2048×(10+32) shape of the streaming target. K = 10.
func BenchmarkQRUpdateShape(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{8192, 26}, {2048, 42}} {
		b.Run(fmt.Sprintf("%dx%d", sh.m, sh.n), func(b *testing.B) {
			rng := testutil.NewRand(7)
			a := testutil.RandomDense(sh.m, sh.n, rng)
			c := testutil.RandomDense(sh.n, 10, rng)
			var ws mat.Workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, r := FactorQR(&ws, a)
				modes := h.MulQ(&ws, c)
				h.Release(&ws)
				ws.Put(r)
				ws.Put(modes)
			}
		})
	}
}
