package parsvd

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"goparsvd/internal/core"
	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// parallelEngine is ParSVD_Parallel behind the facade: a persistent world
// of in-process ranks, each a goroutine owning one row block of the
// snapshot matrix and one core.Parallel engine. The facade feeds global
// batches; the engine partitions rows, dispatches one operation to every
// rank (so the MPI-style collectives inside always line up), and collects
// per-rank replies. A rank panic aborts the world — exactly as mpi.Run
// would — and surfaces as an error; the engine is then permanently
// failed.
type parallelEngine struct {
	opts  core.Options
	ranks int

	world *mpi.World
	cmds  []chan parOp
	wg    sync.WaitGroup

	rows   int // global row count, 0 until the first batch
	parts  []grid.Range
	pushed int // batches ingested
	failed error
}

type parOpKind int

const (
	parPush parOpKind = iota
	parGather
)

type parOp struct {
	kind  parOpKind
	block *mat.Dense // parPush: this rank's row block
	s     *mat.Dense // parPush: the sketch projection, nil for raw rows
	reply chan<- parReply
}

type parReply struct {
	rank int
	err  error
	// Rank 0's gather payload.
	modes      *mat.Dense
	singular   []float64
	iterations int
	snapshots  int
}

func newParallelEngine(opts core.Options, ranks int) *parallelEngine {
	pe := &parallelEngine{
		opts:  opts,
		ranks: ranks,
		world: mpi.NewWorld(ranks),
		cmds:  make([]chan parOp, ranks),
	}
	for r := 0; r < ranks; r++ {
		pe.cmds[r] = make(chan parOp)
		pe.wg.Add(1)
		go pe.rankLoop(r)
	}
	return pe
}

// rankLoop is one rank's service goroutine: it applies operations in
// arrival order, converting any engine panic (including the abort echo
// raised when a peer rank fails mid-collective) into an error reply.
func (pe *parallelEngine) rankLoop(rank int) {
	defer pe.wg.Done()
	c := pe.world.Comm(rank)
	eng := core.NewParallel(c, pe.opts)
	for op := range pe.cmds[rank] {
		reply := parReply{rank: rank}
		func() {
			defer func() {
				if v := recover(); v != nil {
					pe.world.Abort()
					if err, ok := v.(error); ok {
						reply.err = err
					} else {
						reply.err = fmt.Errorf("parsvd: rank %d: %v", rank, v)
					}
				}
			}()
			switch op.kind {
			case parPush:
				eng.Push(op.block, op.s)
			case parGather:
				modes := eng.GatherModes()
				if rank == 0 {
					reply.modes = modes
					reply.singular = append([]float64(nil), eng.SingularValues()...)
					reply.iterations = eng.Iterations()
					reply.snapshots = eng.SnapshotsSeen()
				}
			}
		}()
		op.reply <- reply
	}
}

// dispatch hands one operation to every rank and waits for all replies,
// returning rank 0's reply and the first error observed. mk builds the
// per-rank operation.
func (pe *parallelEngine) dispatch(mk func(rank int) parOp) (parReply, error) {
	replyCh := make(chan parReply, pe.ranks)
	for r := 0; r < pe.ranks; r++ {
		op := mk(r)
		op.reply = replyCh
		pe.cmds[r] <- op
	}
	var root parReply
	var firstErr error
	for i := 0; i < pe.ranks; i++ {
		rep := <-replyCh
		if rep.rank == 0 {
			root = rep
		}
		if rep.err == nil {
			continue
		}
		// Prefer the originating panic over the abort echoes of the ranks
		// that were merely blocked on a collective when a peer failed.
		if firstErr == nil || (isAbortEcho(firstErr) && !isAbortEcho(rep.err)) {
			firstErr = rep.err
		}
	}
	return root, firstErr
}

// isAbortEcho recognizes the secondary failure raised in ranks that were
// blocked on communication when another rank panicked.
func isAbortEcho(err error) bool {
	return errors.Is(err, mpi.ErrAborted) || err.Error() == "mpi: aborted because a peer rank panicked"
}

func (pe *parallelEngine) push(x, s *mat.Dense) error {
	if pe.failed != nil {
		return pe.failed
	}
	if pe.rows == 0 {
		if x.Rows() < pe.ranks {
			return fmt.Errorf("parsvd: %d snapshot rows cannot be split across %d ranks", x.Rows(), pe.ranks)
		}
		pe.rows = x.Rows()
		pe.parts = grid.Partition(pe.rows, pe.ranks)
	}
	_, err := pe.dispatch(func(rank int) parOp {
		p := pe.parts[rank]
		return parOp{kind: parPush, block: x.SliceRows(p.Start, p.End), s: s}
	})
	if err != nil {
		pe.failed = fmt.Errorf("%w: parallel update failed: %w", ErrEngineFailed, err)
		return pe.failed
	}
	pe.pushed++
	return nil
}

func (pe *parallelEngine) gather() (parReply, error) {
	if pe.failed != nil {
		return parReply{}, pe.failed
	}
	if pe.rows == 0 {
		return parReply{}, errors.New("parsvd: no data ingested yet")
	}
	root, err := pe.dispatch(func(int) parOp { return parOp{kind: parGather} })
	if err != nil {
		pe.failed = fmt.Errorf("%w: gathering modes failed: %w", ErrEngineFailed, err)
		return parReply{}, pe.failed
	}
	return root, nil
}

func (pe *parallelEngine) result() (*Result, error) {
	root, err := pe.gather()
	if err != nil {
		return nil, err
	}
	return &Result{
		Modes:      root.modes,
		Singular:   root.singular,
		Iterations: root.iterations,
		Snapshots:  root.snapshots,
	}, nil
}

// save serializes the global state in the serial checkpoint format, so a
// parallel run's checkpoint can be resumed anywhere (Load returns a
// serial-backend SVD holding the global modes). A result just gathered by
// the caller is reused; otherwise one gather collective runs here.
func (pe *parallelEngine) save(w io.Writer, res *Result) error {
	if res == nil {
		root, err := pe.gather()
		if err != nil {
			return err
		}
		res = &Result{
			Modes:      root.modes,
			Singular:   root.singular,
			Iterations: root.iterations,
			Snapshots:  root.snapshots,
		}
	}
	eng, err := core.RestoreSerial(pe.opts, res.Modes, res.Singular,
		res.Iterations, res.Snapshots)
	if err != nil {
		return fmt.Errorf("parsvd: assembling checkpoint state: %w", err)
	}
	return eng.Save(w)
}

func (pe *parallelEngine) stats() Stats {
	st := pe.world.Stats()
	return Stats{Ranks: st.Ranks, Messages: st.Messages, Bytes: st.Bytes}
}

func (pe *parallelEngine) close() error {
	for _, ch := range pe.cmds {
		close(ch)
	}
	pe.wg.Wait()
	return nil
}
