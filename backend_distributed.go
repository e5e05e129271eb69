package parsvd

import (
	"errors"
	"fmt"
	"io"
	"time"

	"goparsvd/internal/launch"
	"goparsvd/internal/mat"
)

// distEngine is ParSVD over a persistent multi-process worker world: one
// parsvd-worker OS process per rank on loopback TCP, held open across
// operations exactly like the in-process parallel engine holds its rank
// goroutines. The facade feeds global batches; the engine's session
// scatters row blocks over the workers' stdin (the framed protocol in
// internal/launch), the workers run the collective streaming update among
// themselves, and queries (spectrum, modes fingerprint, checkpoint
// gather) come back over their stdout.
//
// The fleet is spawned lazily on the first push — constructing a
// Distributed SVD costs nothing until data arrives — and any session
// failure (a worker death, an engine panic on a rank, a protocol
// violation, an operation timeout) permanently fails the engine: the
// remaining workers are killed immediately and every later operation
// reports an error wrapping ErrEngineFailed.
type distEngine struct {
	cfg    config
	sess   *launch.Session
	rows   int // global row count, 0 until the first batch
	failed error
	// deadline is the Fit context deadline currently in force (zero
	// outside a deadline-bearing Fit): it caps fleet startup and every
	// wire round trip, so a ctx deadline bounds the whole distributed
	// run instead of only being observed between batches.
	deadline time.Time
}

func newDistEngine(cfg config) *distEngine { return &distEngine{cfg: cfg} }

// start spawns and initializes the worker fleet. A spawn failure (no
// worker binary, no free ports) does not poison the engine — nothing has
// been ingested, so the next push may retry.
func (d *distEngine) start() error {
	sess, err := launch.StartSession(launch.SessionConfig{
		Ranks:     d.cfg.ranks,
		WorkerBin: d.cfg.transport.WorkerBin,
		Spec: launch.EngineSpec{
			K:          d.cfg.k,
			FF:         d.cfg.ff,
			R1:         d.cfg.r1,
			Method:     int(d.cfg.method),
			LowRank:    d.cfg.lowRank,
			Oversample: d.cfg.rlaOpts.Oversample,
			PowerIters: d.cfg.rlaOpts.PowerIters,
			Seed:       d.cfg.rlaOpts.Seed,
		},
		OpTimeout:   d.cfg.transport.Timeout,
		Deadline:    d.deadline,
		IdleTimeout: d.cfg.transport.IdleTimeout,
		Stderr:      d.cfg.transport.Stderr,
	})
	if err != nil {
		return fmt.Errorf("parsvd: starting distributed worker fleet: %w", err)
	}
	d.sess = sess
	return nil
}

// poison marks the engine permanently failed after a session fault.
func (d *distEngine) poison(op string, err error) error {
	d.failed = fmt.Errorf("%w: %s: %w", ErrEngineFailed, op, err)
	return d.failed
}

// sessionErr classifies a session operation error: a fault that killed
// the fleet poisons the engine permanently, while a clean pre-wire
// refusal (an expired Fit deadline before any frame was written) leaves
// the still-healthy session — and this engine — fully usable.
func (d *distEngine) sessionErr(op string, err error) error {
	if d.sess.Failed() == nil {
		return fmt.Errorf("parsvd: %s: %w", op, err)
	}
	return d.poison(op, err)
}

// setDeadline maps a Fit context deadline onto the session's hard
// operation cap (zero clears it). Implements the deadlineAware seam Fit
// uses; Push/Result outside a Fit run under TransportConfig.Timeout
// alone.
func (d *distEngine) setDeadline(t time.Time) {
	d.deadline = t
	if d.sess != nil {
		d.sess.SetDeadline(t)
	}
}

func (d *distEngine) push(x, s *mat.Dense) error {
	if d.failed != nil {
		return d.failed
	}
	if d.sess == nil {
		if x.Rows() < d.cfg.ranks {
			return fmt.Errorf("parsvd: %d snapshot rows cannot be split across %d ranks", x.Rows(), d.cfg.ranks)
		}
		if err := d.start(); err != nil {
			return err
		}
	}
	// A rejection before any frame was written (dimension mismatch,
	// non-finite values, expired deadline) leaves the fleet consistent
	// and usable; only a wire-level fault poisons (sessionErr). A sketch
	// travels as the pair: each rank receives its row block of Q plus
	// all of S.
	var err error
	if s == nil {
		err = d.sess.Push(x)
	} else {
		err = d.sess.PushSketch(x, s)
	}
	if err != nil {
		return d.sessionErr("distributed update", err)
	}
	d.rows = x.Rows()
	return nil
}

func (d *distEngine) result() (*Result, error) {
	if d.failed != nil {
		return nil, d.failed
	}
	if d.sess == nil || d.rows == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	singular, err := d.sess.Spectrum()
	if err != nil {
		return nil, d.sessionErr("reading distributed spectrum", err)
	}
	sha, err := d.sess.ModesSHA()
	if err != nil {
		return nil, d.sessionErr("fingerprinting distributed modes", err)
	}
	st := d.sess.Stats()
	// Modes stays nil: the M×K matrix lives row-distributed in the worker
	// processes; ModesSHA256 fingerprints the gathered matrix bit-exactly
	// and Save gathers it into a checkpoint when the caller wants it.
	// The fingerprint costs one gather collective per result() — the same
	// M×K gather the Parallel backend's result() performs — so serving a
	// distributed model is no more expensive per published view than
	// serving a parallel one; the server's micro-batching amortizes both.
	return &Result{
		Singular:    singular,
		Iterations:  st.Iterations,
		Snapshots:   st.Snapshots,
		ModesSHA256: sha,
	}, nil
}

// save gathers the global state at rank 0 and writes the facade
// checkpoint format: the bytes are exactly what the serial engine would
// have written for the gathered state, so Load resumes a distributed run
// the same way it resumes a parallel one (serially, from global modes).
func (d *distEngine) save(w io.Writer, _ *Result) error {
	if d.failed != nil {
		return d.failed
	}
	if d.sess == nil || d.rows == 0 {
		return errors.New("parsvd: no data ingested yet")
	}
	blob, err := d.sess.Save()
	if err != nil {
		return d.sessionErr("gathering distributed checkpoint", err)
	}
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("parsvd: writing checkpoint: %w", err)
	}
	return nil
}

func (d *distEngine) stats() Stats {
	st := Stats{Ranks: d.cfg.ranks}
	if d.sess != nil {
		ss := d.sess.Stats()
		st.Messages, st.Bytes = ss.Messages, ss.Bytes
	}
	return st
}

func (d *distEngine) close() error {
	if d.sess == nil {
		return nil
	}
	return d.sess.Close()
}
