package parsvd

import (
	"errors"
	"fmt"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
)

// Matrix is the dense row-major float64 matrix every parsvd API speaks.
// It is an alias of the engine matrix type, so facade users get the full
// method set (At, Set, Dims, SliceCols, Col, Row, Clone, FroNorm, …)
// without an import of the internal packages.
type Matrix = mat.Dense

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// NewMatrixFromData wraps an existing row-major backing slice (adopted,
// not copied) as an r×c matrix. len(data) must be r·c.
func NewMatrixFromData(r, c int, data []float64) (*Matrix, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("parsvd: NewMatrixFromData: negative dims %dx%d", r, c)
	}
	// Divide rather than multiply: r·c of decoded (untrusted) dims can wrap
	// around to len(data) and pass a product check.
	if n := len(data); (r == 0 && n != 0) || (r != 0 && (n%r != 0 || n/r != c)) {
		return nil, fmt.Errorf("parsvd: NewMatrixFromData: %d values for a %dx%d matrix", len(data), r, c)
	}
	return mat.NewFromData(r, c, data), nil
}

// NewMatrixFromRows copies a slice of equal-length rows into a matrix.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("parsvd: NewMatrixFromRows: no rows")
	}
	c := len(rows[0])
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("parsvd: NewMatrixFromRows: row %d has %d values, want %d", i, len(row), c)
		}
	}
	return mat.NewFromRows(rows), nil
}

// Basic dense operations re-exported for facade consumers (examples,
// downstream analysis code) so routine pre/post-processing does not
// require a second linear-algebra dependency.

// Mul returns a·b.
func Mul(a, b *Matrix) *Matrix { return mat.Mul(a, b) }

// MulTransA returns aᵀ·b (the modal-projection product).
func MulTransA(a, b *Matrix) *Matrix { return mat.MulTransA(a, b) }

// MulTransB returns a·bᵀ.
func MulTransB(a, b *Matrix) *Matrix { return mat.MulTransB(a, b) }

// MulDiag returns a·diag(d): column j of a scaled by d[j].
func MulDiag(a *Matrix, d []float64) *Matrix { return mat.MulDiag(a, d) }

// HStack concatenates matrices left to right.
func HStack(ms ...*Matrix) *Matrix { return mat.HStack(ms...) }

// Sub returns a − b.
func Sub(a, b *Matrix) *Matrix { return mat.Sub(a, b) }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 { return mat.Dot(a, b) }

// Nrm2 returns the Euclidean norm of v.
func Nrm2(v []float64) float64 { return mat.Nrm2(v) }

// Axpy computes y ← α·x + y in place.
func Axpy(alpha float64, x, y []float64) { mat.Axpy(alpha, x, y) }

// TruncatedSVD computes the exact (non-streaming) rank-k truncated SVD of
// a: the reference decomposition facade users compare streamed results
// against. U is m×k, s has length k, V is n×k; k is clamped to min(m, n).
func TruncatedSVD(a *Matrix, k int) (u *Matrix, s []float64, v *Matrix, err error) {
	if a == nil || a.IsEmpty() {
		return nil, nil, nil, errors.New("parsvd: TruncatedSVD of an empty matrix")
	}
	if k < 1 {
		return nil, nil, nil, fmt.Errorf("parsvd: TruncatedSVD rank %d < 1", k)
	}
	u, s, v = linalg.SVDTruncated(a, k)
	return u, s, v, nil
}

// CompressionRatio reports the storage ratio of rank-k compression of an
// m×n snapshot matrix: original m·n values versus m·k (modes) + k
// (singular values) + k·n (coefficients). Non-positive arguments yield 0.
func CompressionRatio(m, n, k int) float64 {
	if m < 1 || n < 1 || k < 1 {
		return 0
	}
	original := float64(m) * float64(n)
	compressed := float64(m)*float64(k) + float64(k) + float64(k)*float64(n)
	return original / compressed
}
