// Package tsqr implements distributed QR factorizations of tall-and-skinny
// matrices whose rows are partitioned across MPI ranks.
//
// Two variants are provided:
//
//   - GatherQR — the paper's Listing 4: local QR on each rank, gather the
//     stacked R factors at rank 0, a second QR there, and scatter of the
//     Q-correction blocks. Simple, one communication round, but the root
//     does O(P·n²) work and receives O(P·n²) data.
//
//   - TreeQR — the binary-reduction TSQR of Benson, Gleich & Demmel (the
//     paper's reference [32]): R factors combine pairwise up a log₂(P)-deep
//     tree, and n×n basis transforms flow back down. The root's work and
//     incast drop to O(n²·log P).
//
// Both return the same factorization (up to floating-point roundoff)
// because both normalize signs so R has a non-negative diagonal — this is
// the principled version of the paper's `qglobal = -qglobal` consistency
// trick.
//
// Both algorithms speak only to *mpi.Comm, so they are transport-agnostic:
// the same gather/correction exchanges run over the in-process channel
// fabric and over the multi-process TCP mesh (internal/mpi/tcptransport),
// and tcptransport's conformance tests pin GatherQR to bit-identical
// factors across the two.
package tsqr

import (
	"fmt"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// Point-to-point tags used by the two algorithms. GatherQR follows the
// paper's Listing 4 convention of destination-dependent tags
// (tagQBlock+rank), so each algorithm gets its own 2¹⁶-wide block: the old
// ten-apart constants collided once the world exceeded ten ranks — exactly
// the regime the multi-process TCP transport opens up. Both fabrics carry
// tags as full integers (the wire format uses an i64 field), so widening
// costs nothing.
const (
	tagQBlock = 1 << 16
	tagTreeR  = 2 << 16
	tagTreeT  = 2<<16 + 1
)

// GatherQR computes the thin QR factorization of the row-distributed matrix
// A = [A_0; A_1; …; A_{P−1}], where a is this rank's block (m_i×n). It
// returns this rank's block of Q (m_i×n) and the global R factor (n×n),
// which is valid on rank 0 only (pass it through c.BcastMatrix if every
// rank needs it). The method is Listing 4 of the paper: local QR, gather of
// the R factors, a second QR at the root, and distribution of the
// Q-correction blocks.
func GatherQR(c *mpi.Comm, a *mat.Dense) (qlocal, r *mat.Dense) {
	return GatherQRWith(nil, c, a)
}

// GatherQRWith is GatherQR with the local QR factors, the stacked-R
// factorization and the Q-correction products drawn from ws, so each rank
// of a streaming update reuses its buffers across batches. Matrices that
// cross rank boundaries are still freshly allocated by the communicator.
func GatherQRWith(ws *mat.Workspace, c *mpi.Comm, a *mat.Dense) (qlocal, r *mat.Dense) {
	leaf, corr, r := GatherFactorWith(ws, c, a)
	qlocal = leaf.MulQ(ws, corr)
	leaf.Release(ws)
	ws.Put(corr)
	return qlocal, r
}

// GatherFactorWith is GatherQRWith with this rank's block of Q left
// implicit: it is leaf·[corr; 0] (linalg.Householder.MulQ), where leaf is
// the local factorization and corr the rank's block of the root's Q. A
// caller that only needs Q times a small matrix multiplies corr by it first
// and never forms Q. leaf, corr and, on rank 0, r come from ws.
func GatherFactorWith(ws *mat.Workspace, c *mpi.Comm, a *mat.Dense) (leaf linalg.Householder, corr, r *mat.Dense) {
	n := a.Cols()
	leaf, rl := linalg.FactorQR(ws, a) // rl is min(m_i,n)×n

	if c.Rank() != 0 {
		c.SendMatrix(0, tagQBlock, rl)
		ws.Put(rl)
		return leaf, c.RecvMatrix(0, tagQBlock+c.Rank()), nil
	}

	// Rank 0: gather the R factors (its own plus one per peer, in rank
	// order) and stack them vertically.
	blocks := make([]*mat.Dense, c.Size())
	blocks[0] = rl
	for src := 1; src < c.Size(); src++ {
		blocks[src] = c.RecvMatrix(src, tagQBlock)
	}
	rGlobal := mat.VStack(blocks...)

	qGlobal, rFinal := linalg.QRWith(ws, rGlobal)
	linalg.NormalizeQRSigns(qGlobal, rFinal)

	// Slice qGlobal back into per-rank correction blocks, matching each
	// rank's local R row count, and send them out.
	off := blocks[0].Rows()
	for dst := 1; dst < c.Size(); dst++ {
		rows := blocks[dst].Rows()
		c.SendMatrix(dst, tagQBlock+dst, qGlobal.SliceRows(off, off+rows))
		off += rows
	}
	corr = ws.GetUninit(rl.Rows(), qGlobal.Cols())
	copy(corr.RawData(), qGlobal.RawData())
	ws.Put(rl)
	ws.Put(qGlobal)
	if rFinal.Rows() != n || rFinal.Cols() != n {
		// Happens only when the global row count is below n; the caller's
		// matrix was not tall-and-skinny.
		panic(fmt.Sprintf("tsqr: global matrix has fewer rows than columns (R is %dx%d)",
			rFinal.Rows(), rFinal.Cols()))
	}
	return leaf, corr, rFinal
}

// TreeQR computes the same distributed thin QR as GatherQR using a binary
// reduction tree. Every rank's local block must have at least n rows (the
// standard TSQR leaf condition). The returned R is valid on rank 0 only.
func TreeQR(c *mpi.Comm, a *mat.Dense) (qlocal, r *mat.Dense) {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("tsqr: TreeQR needs local rows >= cols, got %dx%d", m, n))
	}
	rank, size := c.Rank(), c.Size()

	qLeaf, rCur := linalg.QR(a) // m×n and n×n
	linalg.NormalizeQRSigns(qLeaf, rCur)

	// Upsweep: at stride s, ranks that are multiples of 2s absorb the R of
	// rank+s (when it exists). Each combine stores its 2n×n Q factor for
	// the downsweep.
	type combine struct {
		qc     *mat.Dense // (n+n)×n combine factor
		child  int        // the partner whose R was absorbed
		hasTop bool
	}
	var combines []combine
	active := true
	for s := 1; s < size; s *= 2 {
		if !active {
			break
		}
		if rank%(2*s) == 0 {
			partner := rank + s
			if partner < size {
				rp := c.RecvMatrix(partner, tagTreeR)
				stack := mat.VStack(rCur, rp)
				qc, rNew := linalg.QR(stack)
				linalg.NormalizeQRSigns(qc, rNew)
				rCur = rNew
				combines = append(combines, combine{qc: qc, child: partner, hasTop: true})
			}
		} else {
			parent := rank - s
			c.SendMatrix(parent, tagTreeR, rCur)
			active = false
		}
	}

	// Downsweep: the root starts with the identity transform; each combine
	// node splits its stored Q factor, keeps the top half for its own
	// subtree and ships the bottom half to the absorbed child.
	var t *mat.Dense
	if rank == 0 {
		t = mat.Eye(n)
	} else {
		// Receive the transform from whichever parent absorbed us.
		parent := parentOf(rank, size)
		t = c.RecvMatrix(parent, tagTreeT)
	}
	for i := len(combines) - 1; i >= 0; i-- {
		cb := combines[i]
		top := cb.qc.SliceRows(0, n)
		bottom := cb.qc.SliceRows(n, 2*n)
		c.SendMatrix(cb.child, tagTreeT, mat.Mul(bottom, t))
		t = mat.Mul(top, t)
	}
	qlocal = mat.Mul(qLeaf, t)
	if rank == 0 {
		return qlocal, rCur
	}
	return qlocal, nil
}

// parentOf returns the rank that absorbs the given rank's R factor during
// the upsweep of the binary reduction tree.
func parentOf(rank, size int) int {
	for s := 1; s < size; s *= 2 {
		if rank%(2*s) != 0 {
			return rank - s
		}
	}
	panic(fmt.Sprintf("tsqr: rank %d has no parent in a tree of size %d", rank, size))
}

// SerialQR is the reference factorization the distributed variants must
// reproduce: a plain thin QR with the same non-negative-diagonal sign
// convention.
func SerialQR(a *mat.Dense) (q, r *mat.Dense) {
	q, r = linalg.QR(a)
	linalg.NormalizeQRSigns(q, r)
	return q, r
}
