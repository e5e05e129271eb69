package parsvd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"goparsvd/internal/ncio"
	"goparsvd/internal/scaling"
)

// Source yields the snapshot matrix batch by batch: columns are
// snapshots, rows are degrees of freedom, and every batch must have the
// same row count. Fit drains a Source to completion; a Source that also
// implements io.Closer is closed when Fit returns.
type Source interface {
	// Next returns the next batch, or (nil, io.EOF) once the source is
	// drained. The returned matrix is owned by the engine until the next
	// Next call.
	Next(ctx context.Context) (*Matrix, error)
}

// Workload is the deterministic streaming benchmark workload shared by
// every execution mode (an analytic Burgers snapshot matrix): two runs
// with the same parameters see bit-identical inputs, which is what lets
// the Distributed backend be verified bit-for-bit against the in-process
// one.
type Workload = scaling.StreamWorkload

// DefaultWorkload is a laptop-scale Workload configuration.
func DefaultWorkload() Workload { return scaling.DefaultStreamWorkload() }

// FromMatrix serves an in-memory snapshot matrix in column batches of the
// given width (the last batch may be narrower). Like bytes.NewReader it
// never fails at construction; an empty matrix or a batch width < 1 is
// reported by the first Next call, i.e. as a Fit error.
func FromMatrix(a *Matrix, batch int) Source {
	return &matrixSource{a: a, batch: batch}
}

type matrixSource struct {
	a     *Matrix
	batch int
	pos   int
}

func (s *matrixSource) Next(ctx context.Context) (*Matrix, error) {
	if s.a == nil || s.a.IsEmpty() {
		return nil, errors.New("parsvd: FromMatrix with an empty matrix")
	}
	if s.batch < 1 {
		return nil, fmt.Errorf("parsvd: FromMatrix batch width %d < 1", s.batch)
	}
	if s.pos >= s.a.Cols() {
		return nil, io.EOF
	}
	end := s.pos + s.batch
	if end > s.a.Cols() {
		end = s.a.Cols()
	}
	b := s.a.SliceCols(s.pos, end)
	s.pos = end
	return b, nil
}

// FromBatches adapts a generator function into a Source: next is called
// once per batch and signals exhaustion by returning (nil, io.EOF) — or
// simply (nil, nil), for generators without an error path.
func FromBatches(next func() (*Matrix, error)) Source {
	return &funcSource{next: next}
}

type funcSource struct {
	next func() (*Matrix, error)
	done bool
}

func (s *funcSource) Next(ctx context.Context) (*Matrix, error) {
	if s.next == nil {
		return nil, errors.New("parsvd: FromBatches with a nil generator")
	}
	if s.done {
		return nil, io.EOF
	}
	b, err := s.next()
	if err != nil {
		s.done = true
		return nil, err
	}
	if b == nil {
		s.done = true
		return nil, io.EOF
	}
	return b, nil
}

// FromNetCDF streams a variable out of a goparsvd self-describing
// container file (the GNC format written by internal/ncio and the gnc
// package). The variable's first dimension is treated as the snapshot
// (time) axis and the remaining dimensions are flattened into rows, so an
// (time × lat × lon) field becomes a (lat·lon × time) snapshot matrix
// served in time batches of the given width. The returned Source holds
// the file open; Fit closes it, or call Close directly.
func FromNetCDF(path, variable string, batch int) (Source, error) {
	if batch < 1 {
		return nil, fmt.Errorf("parsvd: FromNetCDF batch width %d < 1", batch)
	}
	f, err := ncio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("parsvd: FromNetCDF: %w", err)
	}
	v, ok := f.Var(variable)
	if !ok {
		f.Close()
		return nil, fmt.Errorf("parsvd: FromNetCDF: no variable %q in %s", variable, path)
	}
	dims := v.Dims
	if len(dims) < 2 {
		f.Close()
		return nil, fmt.Errorf("parsvd: FromNetCDF: variable %q needs a time dimension plus at least one space dimension, has %d", variable, len(dims))
	}
	sizes := make([]int64, len(dims))
	rows := int64(1)
	for i, d := range dims {
		dim, ok := f.Dim(d)
		if !ok {
			f.Close()
			return nil, fmt.Errorf("parsvd: FromNetCDF: variable %q references unknown dimension %q", variable, d)
		}
		sizes[i] = dim.Size
		if i > 0 {
			rows *= dim.Size
		}
	}
	if sizes[0] < 1 || rows < 1 {
		f.Close()
		return nil, fmt.Errorf("parsvd: FromNetCDF: variable %q is empty", variable)
	}
	return &netcdfSource{
		f: f, variable: variable, batch: batch,
		steps: sizes[0], rows: rows, sizes: sizes,
	}, nil
}

type netcdfSource struct {
	f        *ncio.File
	variable string
	batch    int
	steps    int64 // length of the time axis
	rows     int64 // flattened space size
	sizes    []int64
	pos      int64
	closed   bool
}

func (s *netcdfSource) Next(ctx context.Context) (*Matrix, error) {
	if s.closed {
		return nil, errors.New("parsvd: FromNetCDF source is closed")
	}
	if s.pos >= s.steps {
		return nil, io.EOF
	}
	end := s.pos + int64(s.batch)
	if end > s.steps {
		end = s.steps
	}
	offsets := make([]int64, len(s.sizes))
	counts := make([]int64, len(s.sizes))
	offsets[0] = s.pos
	counts[0] = end - s.pos
	for i := 1; i < len(s.sizes); i++ {
		counts[i] = s.sizes[i]
	}
	raw, err := s.f.ReadSlab(s.variable, offsets, counts)
	if err != nil {
		return nil, fmt.Errorf("parsvd: FromNetCDF: %w", err)
	}
	// raw is time-major ([time][space]); the engine wants space rows and
	// time columns.
	rows, cols := int(s.rows), int(end-s.pos)
	out := NewMatrix(rows, cols)
	for t := 0; t < cols; t++ {
		base := t * rows
		for r := 0; r < rows; r++ {
			out.Set(r, t, raw[base+r])
		}
	}
	s.pos = end
	return out, nil
}

// Close releases the underlying file. Fit calls it automatically.
func (s *netcdfSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// FromWorkload serves the deterministic benchmark workload as a Source:
// an InitBatch-column seed batch followed by Batch-column streaming
// batches of the analytic Burgers snapshot matrix with RowsPerRank·ranks
// rows. All three backends consume the identical batches — the
// Distributed backend row-scatters them to its worker fleet over the
// wire — so one Source definition drives every execution mode on
// bit-identical data.
func FromWorkload(w Workload, ranks int) (Source, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("parsvd: FromWorkload ranks %d < 1", ranks)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("parsvd: FromWorkload: %w", err)
	}
	return &workloadSource{w: w, ranks: ranks}, nil
}

type workloadSource struct {
	w     Workload
	ranks int
	pos   int
}

func (s *workloadSource) Next(ctx context.Context) (*Matrix, error) {
	if s.pos >= s.w.Snapshots {
		return nil, io.EOF
	}
	end := s.w.BatchEnd(s.pos)
	bc := s.w.BurgersConfig(s.ranks)
	b := bc.Block(0, bc.Nx, s.pos, end)
	s.pos = end
	return b, nil
}
