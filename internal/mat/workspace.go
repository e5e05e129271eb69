package mat

// Workspace is a reusable buffer pool for the temporaries of an iterative
// hot path. A streaming decomposition allocates its matrices and scratch
// slices from one Workspace; once the pool has warmed up (after the first
// iteration, when batch shapes are steady), every Get is satisfied by
// recycled storage and the iteration performs no heap allocations.
//
// All methods are safe on a nil *Workspace, which degrades to plain
// allocation — APIs can accept an optional workspace without branching.
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	free   []*Dense
	views  []*Dense
	floats [][]float64
	ints   [][]int
}

// Get returns a zeroed r×c matrix, recycling pooled storage when a returned
// buffer is large enough.
func (w *Workspace) Get(r, c int) *Dense {
	d := w.GetUninit(r, c)
	zeroFloats(d.data)
	return d
}

// GetUninit returns an r×c matrix whose contents are unspecified — for
// destinations that are fully overwritten, where zeroing would be waste.
func (w *Workspace) GetUninit(r, c int) *Dense {
	if w == nil {
		return New(r, c)
	}
	need := r * c
	// Prefer the most recently returned buffer (still cache-warm); scan a
	// few entries for one with enough capacity.
	for i := len(w.free) - 1; i >= 0; i-- {
		d := w.free[i]
		if cap(d.data) < need {
			continue
		}
		w.free[i] = w.free[len(w.free)-1]
		w.free = w.free[:len(w.free)-1]
		d.rows, d.cols = r, c
		d.data = d.data[:need]
		return d
	}
	return New(r, c)
}

// maxPoolEntries bounds each of the workspace free lists. Hot paths also
// hand the pool matrices that originated elsewhere (e.g. communicator-
// allocated broadcast results), which would otherwise accumulate one entry
// per iteration forever; beyond the cap — far above any steady-state
// working set — the smallest pooled buffer is evicted instead.
const maxPoolEntries = 64

// Put returns a matrix to the pool for reuse. The caller must not use m
// afterwards: its storage will back a future Get. Putting nil is a no-op.
func (w *Workspace) Put(m *Dense) {
	if w == nil || m == nil || cap(m.data) == 0 {
		return
	}
	if len(w.free) >= maxPoolEntries {
		small := 0
		for i, d := range w.free {
			if cap(d.data) < cap(w.free[small].data) {
				small = i
			}
		}
		if cap(w.free[small].data) >= cap(m.data) {
			return // incoming buffer is the smallest; drop it
		}
		w.free[small] = m
		return
	}
	w.free = append(w.free, m)
}

// ViewRows returns a header onto rows [r0,r1) of m (see Dense.ViewRows),
// recycling a pooled header. Kernels that hand row blocks of one matrix to
// the GEMM take their views here: a header passed to a product escapes, so
// a stack-declared one would cost an allocation per call. The view shares
// m's storage; release it with PutView, never Put.
func (w *Workspace) ViewRows(m *Dense, r0, r1 int) *Dense {
	var v *Dense
	if w != nil && len(w.views) > 0 {
		v = w.views[len(w.views)-1]
		w.views = w.views[:len(w.views)-1]
	} else {
		v = new(Dense)
	}
	m.ViewRows(r0, r1, v)
	return v
}

// PutView returns a header obtained from ViewRows to the pool.
func (w *Workspace) PutView(v *Dense) {
	if w == nil || v == nil || len(w.views) >= maxPoolEntries {
		return
	}
	v.data = nil // drop the reference to the viewed matrix
	w.views = append(w.views, v)
}

// GetFloats returns a zeroed float slice of length n from the pool.
func (w *Workspace) GetFloats(n int) []float64 {
	if w != nil {
		for i := len(w.floats) - 1; i >= 0; i-- {
			s := w.floats[i]
			if cap(s) < n {
				continue
			}
			w.floats[i] = w.floats[len(w.floats)-1]
			w.floats = w.floats[:len(w.floats)-1]
			s = s[:n]
			zeroFloats(s)
			return s
		}
	}
	return make([]float64, n)
}

// PutFloats returns a slice obtained from GetFloats to the pool.
func (w *Workspace) PutFloats(s []float64) {
	if w == nil || cap(s) == 0 || len(w.floats) >= maxPoolEntries {
		return
	}
	w.floats = append(w.floats, s)
}

// GetInts returns a zeroed int slice of length n from the pool.
func (w *Workspace) GetInts(n int) []int {
	if w != nil {
		for i := len(w.ints) - 1; i >= 0; i-- {
			s := w.ints[i]
			if cap(s) < n {
				continue
			}
			w.ints[i] = w.ints[len(w.ints)-1]
			w.ints = w.ints[:len(w.ints)-1]
			s = s[:n]
			for j := range s {
				s[j] = 0
			}
			return s
		}
	}
	return make([]int, n)
}

// PutInts returns a slice obtained from GetInts to the pool.
func (w *Workspace) PutInts(s []int) {
	if w == nil || cap(s) == 0 || len(w.ints) >= maxPoolEntries {
		return
	}
	w.ints = append(w.ints, s)
}
