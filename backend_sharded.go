package parsvd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mat"
	"goparsvd/internal/merge"
)

// shardedEngine is the WithShards map-reduce: n independent sub-engines
// of the configured backend, each fitting a disjoint subset of the
// batch stream, reduced at result time up a balanced pairwise merge
// tree (internal/merge). Batches are dealt round-robin, so a long Fit
// spreads its snapshots evenly; the merge is recomputed per result()
// call from the live shard states, which keeps Push cheap and makes the
// reduction stateless.
type shardedEngine struct {
	cfg  config
	subs []engine

	next   int // round-robin cursor
	fed    []bool
	failed error
}

func newShardedEngine(cfg config) *shardedEngine {
	e := &shardedEngine{
		cfg:  cfg,
		subs: make([]engine, cfg.shards),
		fed:  make([]bool, cfg.shards),
	}
	for i := range e.subs {
		switch cfg.backend {
		case Serial:
			e.subs[i] = newSerialEngine(cfg.coreOptions())
		case Parallel:
			e.subs[i] = newParallelEngine(cfg.coreOptions(), cfg.ranks)
		case Distributed:
			e.subs[i] = newDistEngine(cfg)
		}
	}
	return e
}

func (e *shardedEngine) push(x, s *mat.Dense) error {
	if e.failed != nil {
		return e.failed
	}
	i := e.next
	e.next = (e.next + 1) % len(e.subs)
	if err := e.subs[i].push(x, s); err != nil {
		if errors.Is(err, ErrEngineFailed) {
			e.failed = err
		}
		return err
	}
	e.fed[i] = true
	return nil
}

// partials snapshots every fed shard's current factorization as a merge
// operand. Shards that have not seen a batch yet (a short stream dealt
// fewer batches than shards) are skipped. A backend whose Result carries
// no modes (Distributed keeps them row-scattered in the fleet) is read
// through its checkpoint instead — one gather either way.
func (e *shardedEngine) partials() ([]*merge.Partial, error) {
	parts := make([]*merge.Partial, 0, len(e.subs))
	for i, sub := range e.subs {
		if !e.fed[i] {
			continue
		}
		res, err := sub.result()
		if err != nil {
			return nil, fmt.Errorf("parsvd: shard %d of %d: %w", i, len(e.subs), err)
		}
		if res.Modes == nil {
			var buf bytes.Buffer
			if err := sub.save(&buf, res); err != nil {
				return nil, fmt.Errorf("parsvd: shard %d of %d: %w", i, len(e.subs), err)
			}
			st, err := core.ReadState(&buf)
			if err != nil {
				return nil, fmt.Errorf("parsvd: shard %d of %d: %w", i, len(e.subs), err)
			}
			res.Modes, res.Singular = st.Modes, st.Singular
		}
		parts = append(parts, &merge.Partial{
			U:          res.Modes,
			S:          res.Singular,
			Iterations: res.Iterations,
			Snapshots:  res.Snapshots,
		})
	}
	if len(parts) == 0 {
		return nil, errors.New("parsvd: no data ingested yet")
	}
	return parts, nil
}

// merged reduces the shard states into one global factorization.
func (e *shardedEngine) merged() (*merge.Partial, error) {
	parts, err := e.partials()
	if err != nil {
		return nil, err
	}
	return merge.Tree(parts, merge.TreeOptions{
		K:       e.cfg.k,
		Workers: runtime.GOMAXPROCS(0),
	})
}

func (e *shardedEngine) result() (*Result, error) {
	if e.failed != nil {
		return nil, e.failed
	}
	root, err := e.merged()
	if err != nil {
		return nil, err
	}
	return &Result{
		Modes:      root.U,
		Singular:   root.S,
		Iterations: root.Iterations,
		Snapshots:  root.Snapshots,
	}, nil
}

// save serializes the merged global state in the serial checkpoint
// format, like the parallel backend: a sharded fit's checkpoint resumes
// as an ordinary serial model.
func (e *shardedEngine) save(w io.Writer, res *Result) error {
	if e.failed != nil {
		return e.failed
	}
	if res == nil {
		var err error
		if res, err = e.result(); err != nil {
			return err
		}
	}
	eng, err := core.RestoreSerial(e.cfg.coreOptions(), res.Modes, res.Singular,
		res.Iterations, res.Snapshots)
	if err != nil {
		return fmt.Errorf("parsvd: assembling checkpoint state: %w", err)
	}
	return eng.Save(w)
}

func (e *shardedEngine) stats() Stats {
	var st Stats
	for _, sub := range e.subs {
		s := sub.stats()
		st.Messages += s.Messages
		st.Bytes += s.Bytes
	}
	return st
}

func (e *shardedEngine) close() error {
	errs := make([]error, 0, len(e.subs))
	for _, sub := range e.subs {
		errs = append(errs, sub.close())
	}
	return errors.Join(errs...)
}

// setDeadline forwards a Fit deadline to every deadline-aware shard
// (the Distributed sub-engines' wire operations).
func (e *shardedEngine) setDeadline(t time.Time) {
	for _, sub := range e.subs {
		if da, ok := sub.(deadlineAware); ok {
			da.setDeadline(t)
		}
	}
}
