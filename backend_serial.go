package parsvd

import (
	"errors"
	"fmt"
	"io"
	"math"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
)

// serialEngine adapts core.Serial (ParSVD_Serial) to the facade engine
// contract. The facade checks dimensions before the panicking engine
// layer, so the public path stays error-based.
type serialEngine struct {
	opts core.Options
	eng  *core.Serial
	rows int // 0 until the first batch seeds the decomposition
}

func newSerialEngine(opts core.Options) *serialEngine {
	return &serialEngine{opts: opts, eng: core.NewSerial(opts)}
}

// restoredSerialEngine wraps an engine rebuilt from a checkpoint.
func restoredSerialEngine(eng *core.Serial) *serialEngine {
	return &serialEngine{opts: eng.Options(), eng: eng, rows: eng.Modes().Rows()}
}

func (e *serialEngine) push(x, s *mat.Dense) error {
	e.eng.Push(x, s)
	e.rows = x.Rows()
	return nil
}

func (e *serialEngine) result() (*Result, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	return &Result{
		Modes:      e.eng.Modes().Clone(),
		Singular:   append([]float64(nil), e.eng.SingularValues()...),
		Iterations: e.eng.Iterations(),
		Snapshots:  e.eng.SnapshotsSeen(),
	}, nil
}

func (e *serialEngine) save(w io.Writer, _ *Result) error {
	if e.rows == 0 {
		return errors.New("parsvd: no data ingested yet")
	}
	return e.eng.Save(w)
}

func (e *serialEngine) stats() Stats { return Stats{} }

func (e *serialEngine) close() error { return nil }

// coefficients / reconstruct power the facade's projection utilities.
func (e *serialEngine) coefficients(a *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if a == nil || a.Rows() != e.rows {
		return nil, fmt.Errorf("parsvd: Coefficients needs %d-row snapshots", e.rows)
	}
	return e.eng.Coefficients(a), nil
}

func (e *serialEngine) reconstruct(coeffs *mat.Dense) (*mat.Dense, error) {
	if e.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	if coeffs == nil || coeffs.Rows() != e.eng.Modes().Cols() {
		return nil, fmt.Errorf("parsvd: Reconstruct needs %d-row coefficients", e.eng.Modes().Cols())
	}
	return e.eng.Reconstruct(coeffs), nil
}

// checkBatch validates a snapshot batch x·s (s nil for a raw batch x)
// against the rows seen so far (rows == 0 means no batch yet).
// Non-finite values are rejected on every backend — a NaN or Inf
// snapshot would silently corrupt the running factorization — so code
// written against one backend behaves identically on the others.
func checkBatch(x, s *mat.Dense, rows int) error {
	if x == nil || x.IsEmpty() || (s != nil && s.IsEmpty()) {
		return errors.New("parsvd: empty snapshot batch")
	}
	if s != nil && x.Cols() != s.Rows() {
		return fmt.Errorf("parsvd: sketch factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			x.Rows(), x.Cols(), s.Rows(), s.Cols())
	}
	if rows != 0 && x.Rows() != rows {
		return fmt.Errorf("parsvd: batch has %d rows, want %d", x.Rows(), rows)
	}
	for _, m := range []*mat.Dense{x, s} {
		if m == nil {
			continue
		}
		for _, v := range m.RawData() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("parsvd: snapshot batch contains a non-finite value (%g)", v)
			}
		}
	}
	return nil
}
