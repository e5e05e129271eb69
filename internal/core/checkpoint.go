package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"goparsvd/internal/apmos"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
	"goparsvd/internal/rla"
	"goparsvd/internal/stream"
)

// Checkpoint/restart for the streaming engines. Long-running in-situ
// analyses (the paper's target deployment: SVD updates riding along a
// simulation) must survive restarts of the host application, so both
// engines can serialize their complete state — options, modes, singular
// values, counters — to an io.Writer and be reconstructed from an
// io.Reader. The format is a little-endian binary stream with a magic
// header and version byte; Parallel checkpoints are per-rank (each rank
// saves and reloads its own row slice, matching how restart works in
// MPI codes).

var checkpointMagic = [4]byte{'G', 'P', 'S', 'V'}

// Version 1 is the original layout; version 2 appends the shard
// provenance pair (index, count) to the metadata block. A writer emits
// the oldest version that can represent the state — zero provenance
// still writes byte-identical version-1 checkpoints — and the reader
// accepts both.
const (
	checkpointVersion   = 1
	checkpointVersionV2 = 2
)

// ErrBadCheckpoint is returned when restoring from data that is not a
// goparsvd checkpoint or is structurally damaged.
var ErrBadCheckpoint = errors.New("core: not a valid goparsvd checkpoint")

// ShardID records which shard of a partitioned fit produced a
// checkpoint: shard Index of Count disjoint snapshot subsets. The zero
// value means "unknown / whole stream" and is what every non-sharded
// save writes. Merge validation uses it to refuse re-absorbing the same
// shard twice (disjointness is Index-distinctness at equal Count).
type ShardID struct {
	Index int
	Count int
}

// IsZero reports an absent provenance mark.
func (id ShardID) IsZero() bool { return id == ShardID{} }

// Validate checks the structural invariants (0 <= Index < Count).
func (id ShardID) Validate() error {
	if id.IsZero() {
		return nil
	}
	if id.Count < 1 || id.Index < 0 || id.Index >= id.Count {
		return fmt.Errorf("core: shard %d of %d out of range", id.Index, id.Count)
	}
	return nil
}

// State is the complete serialized form of a streaming decomposition:
// everything a checkpoint carries. Modes is adopted without copying by
// both WriteState and the engines restored from a State.
type State struct {
	Opts       Options
	Modes      *mat.Dense
	Singular   []float64
	Iterations int
	Snapshots  int
	// Shard is the provenance mark of a shard-local fit (zero for a
	// whole-stream model).
	Shard ShardID
}

// Save serializes the serial engine's full state. The engine must be
// initialized.
func (s *Serial) Save(w io.Writer) error {
	s.svd.Modes() // panics with a clear message if not initialized
	return WriteState(w, State{
		Opts:       s.opts,
		Modes:      s.svd.Modes(),
		Singular:   s.svd.SingularValues(),
		Iterations: s.svd.Iterations(),
		Snapshots:  s.svd.SnapshotsSeen(),
	})
}

// LoadSerial reconstructs a serial engine from a checkpoint.
func LoadSerial(r io.Reader) (*Serial, error) {
	st, err := ReadState(r)
	if err != nil {
		return nil, err
	}
	eng, err := RestoreSerial(st.Opts, st.Modes, st.Singular, st.Iterations, st.Snapshots)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return eng, nil
}

// RestoreSerial rebuilds a serial engine from externally-held state: the
// current modes (adopted without copying), singular values and counters.
// It validates the options and every structural invariant, returning an
// error instead of panicking, so facades can surface corrupted state to
// their callers. The parsvd facade also uses it to re-wrap the gathered
// global state of a parallel run as a serial engine for checkpointing.
func RestoreSerial(opts Options, modes *mat.Dense, singular []float64,
	iterations, snapshots int) (*Serial, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	svd, err := stream.Restore(stream.Options{
		K:       opts.K,
		FF:      opts.ForgetFactor,
		LowRank: opts.LowRank,
		RLA:     opts.RLA,
	}, modes, singular, iterations, snapshots)
	if err != nil {
		return nil, err
	}
	return &Serial{opts: opts.validated(), svd: svd}, nil
}

// Save serializes this rank's slice of the parallel engine's state. Every
// rank must save (and later reload) its own checkpoint.
func (p *Parallel) Save(w io.Writer) error {
	p.mustBeInitialized()
	return WriteState(w, State{
		Opts:       p.opts,
		Modes:      p.ulocal,
		Singular:   p.singular,
		Iterations: p.iteration,
		Snapshots:  p.snapshots,
	})
}

// LoadParallel reconstructs one rank of a parallel engine from that rank's
// checkpoint, rebinding it to a (new) communicator.
func LoadParallel(c *mpi.Comm, r io.Reader) (*Parallel, error) {
	if c == nil {
		return nil, errors.New("core: LoadParallel needs a communicator")
	}
	st, err := ReadState(r)
	if err != nil {
		return nil, err
	}
	if err := st.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if st.Opts.K < len(st.Singular) {
		return nil, fmt.Errorf("%w: %d singular values exceed K = %d",
			ErrBadCheckpoint, len(st.Singular), st.Opts.K)
	}
	if st.Modes.Rows() < 1 || st.Modes.Cols() < 1 {
		return nil, fmt.Errorf("%w: empty %dx%d modes", ErrBadCheckpoint,
			st.Modes.Rows(), st.Modes.Cols())
	}
	eng := NewParallel(c, st.Opts)
	eng.ulocal = st.Modes
	eng.singular = st.Singular
	eng.rows = st.Modes.Rows()
	eng.iteration = st.Iterations
	eng.snapshots = st.Snapshots
	return eng, nil
}

// WriteState emits the binary layout:
//
//	magic[4] version[1]
//	K, iterations, snapshots            int64
//	forgetFactor                        float64
//	lowRank                             uint8
//	rla: oversample, powerIters, seed   int64
//	r1, method                          int64
//	shardIndex, shardCount              int64  (version 2 only)
//	rows, cols                          int64
//	singular values                     cols × float64
//	modes, row-major                    rows·cols × float64
//
// A zero Shard writes version 1 (byte-identical to the original format,
// pinned by the golden fixture); a non-zero Shard writes version 2.
func WriteState(w io.Writer, st State) error {
	if err := st.Shard.Validate(); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	version := uint8(checkpointVersion)
	if !st.Shard.IsZero() {
		version = checkpointVersionV2
	}
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if _, err := w.Write([]byte{version}); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	rows, cols := st.Modes.Dims()
	if cols != len(st.Singular) {
		return fmt.Errorf("core: checkpoint state inconsistent: %d modes, %d values",
			cols, len(st.Singular))
	}
	lowRank := uint8(0)
	if st.Opts.LowRank {
		lowRank = 1
	}
	ints := []int64{
		int64(st.Opts.K), int64(st.Iterations), int64(st.Snapshots),
	}
	for _, v := range ints {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: checkpoint write: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, st.Opts.ForgetFactor); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if _, err := w.Write([]byte{lowRank}); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	meta := []int64{
		int64(st.Opts.RLA.Oversample), int64(st.Opts.RLA.PowerIters), st.Opts.RLA.Seed,
		int64(st.Opts.R1), int64(st.Opts.Method),
	}
	if version == checkpointVersionV2 {
		meta = append(meta, int64(st.Shard.Index), int64(st.Shard.Count))
	}
	meta = append(meta, int64(rows), int64(cols))
	for _, v := range meta {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: checkpoint write: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, st.Singular); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, st.Modes.RawData()); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	return nil
}

// ReadState parses either checkpoint version, validating shape and
// option sanity but not the engine-level restore invariants (those run
// in RestoreSerial / stream.Restore).
func ReadState(r io.Reader) (State, error) {
	var st State
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if [4]byte(head[:4]) != checkpointMagic {
		return st, ErrBadCheckpoint
	}
	version := head[4]
	if version != checkpointVersion && version != checkpointVersionV2 {
		return st, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, version)
	}
	var ints [3]int64
	for i := range ints {
		if err := binary.Read(r, binary.LittleEndian, &ints[i]); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	var ff float64
	if err := binary.Read(r, binary.LittleEndian, &ff); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	var lowRank [1]byte
	if _, err := io.ReadFull(r, lowRank[:]); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	nmeta := 7
	if version == checkpointVersionV2 {
		nmeta = 9
	}
	meta := make([]int64, nmeta)
	for i := range meta {
		if err := binary.Read(r, binary.LittleEndian, &meta[i]); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if version == checkpointVersionV2 {
		st.Shard = ShardID{Index: int(meta[5]), Count: int(meta[6])}
		if err := st.Shard.Validate(); err != nil {
			return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	rows, cols := meta[nmeta-2], meta[nmeta-1]
	const maxCheckpointElems = int64(1) << 34 // 128 GiB of float64s: sanity bound
	// Divide rather than multiply: rows*cols can wrap past the bound.
	if rows < 0 || cols < 0 || cols > maxCheckpointElems || (cols > 0 && rows > maxCheckpointElems/cols) {
		return st, fmt.Errorf("%w: implausible shape %dx%d", ErrBadCheckpoint, rows, cols)
	}
	if ff <= 0 || ff > 1 || math.IsNaN(ff) {
		return st, fmt.Errorf("%w: forget factor %g out of range", ErrBadCheckpoint, ff)
	}
	var err error
	if st.Singular, err = readFloats(r, cols); err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	data, err := readFloats(r, rows*cols)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	st.Opts = Options{
		K:            int(ints[0]),
		ForgetFactor: ff,
		LowRank:      lowRank[0] != 0,
		RLA: rla.Options{
			Oversample: int(meta[0]),
			PowerIters: int(meta[1]),
			Seed:       meta[2],
		},
		R1:     int(meta[3]),
		Method: apmos.Method(meta[4]),
	}
	st.Iterations = int(ints[1])
	st.Snapshots = int(ints[2])
	st.Modes = mat.NewFromData(int(rows), int(cols), data)
	return st, nil
}

// readChunk is how many float64s readFloats decodes per read (64 KiB).
const readChunk = 1 << 13

// readFloats reads n little-endian float64s in bounded chunks, growing the
// result only as bytes arrive: a header that lies about the shape fails at
// EOF after at most one chunk of allocation instead of committing the
// declared size up front.
func readFloats(r io.Reader, n int64) ([]float64, error) {
	out := make([]float64, 0, min(n, readChunk))
	buf := make([]byte, 8*min(n, readChunk))
	for int64(len(out)) < n {
		b := buf[:8*min(n-int64(len(out)), readChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return out, nil
}
