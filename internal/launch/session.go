package launch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"goparsvd/internal/grid"
	"goparsvd/internal/mat"
)

// SessionConfig describes one persistent worker fleet.
type SessionConfig struct {
	// Ranks is the number of worker processes.
	Ranks int
	// WorkerBin is the parsvd-worker binary; empty resolves like Run
	// (PARSVD_WORKER, sibling, PATH, go-build fallback).
	WorkerBin string
	// Spec is the engine configuration sent to every rank by INIT.
	Spec EngineSpec
	// OpTimeout bounds each session operation round trip — INIT
	// (rendezvous and fabric establishment included), one PUSH scatter,
	// one gather, the SHUTDOWN drain. Default 2m.
	OpTimeout time.Duration
	// Deadline, when nonzero, additionally caps startup and every
	// operation at an absolute time (see SetDeadline).
	Deadline time.Time
	// IdleTimeout is forwarded to the workers' transports (failure
	// detection window). Zero keeps the worker default.
	IdleTimeout time.Duration
	// Stderr receives the workers' stderr streams; default os.Stderr.
	Stderr io.Writer
}

// SessionStats is the launcher's cheap view of a session world: traffic
// totals summed across ranks plus the engine ingest counters, refreshed
// from the status piggybacked on every acknowledged operation — reading
// them costs no wire round trip.
type SessionStats struct {
	Ranks      int
	Messages   int64
	Bytes      int64
	Rows       int // global snapshot rows (summed per-rank blocks)
	Snapshots  int
	Iterations int
}

// Session is a persistent, sessionful worker world: cfg.Ranks parsvd-worker
// processes holding one live core engine each, fed real snapshot data over
// their stdin and queried over their stdout (see proto.go for the frame
// protocol). It is the process-fabric twin of the facade's in-process
// parallel engine: Push scatters row blocks, Spectrum/ModesSHA/Stats read
// the decomposition, Save gathers a facade-compatible checkpoint, Close
// shuts the fleet down cleanly.
//
// A Session is not safe for concurrent use; callers serialize (the parsvd
// facade holds its own mutex across every operation). Any failure — a
// worker death, a protocol violation, an engine panic, an operation
// timeout — permanently fails the session: the remaining workers are
// killed immediately and every later operation reports the original
// error.
type Session struct {
	cfg     SessionConfig
	workers []*sessWorker

	rows  int // global snapshot rows, 0 until the first Push
	parts []grid.Range

	// hardDeadline, when nonzero, caps every operation's deadline (a Fit
	// context deadline mapped down by the facade). Zero means OpTimeout
	// alone governs.
	hardDeadline time.Time

	stats  SessionStats
	failed error
	closed bool
}

// sessFrame is one parsed reply (or terminal read error) from a worker.
type sessFrame struct {
	verb byte
	body []byte
	err  error
}

// sessWorker supervises one persistent rank process.
type sessWorker struct {
	rank   int
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	frames chan sessFrame
	done   chan struct{} // closed once the process is reaped
	once   sync.Once
}

// StartSession spawns the fleet, wires the rendezvous, and sends INIT to
// every rank. On any failure the partial fleet is killed and reaped before
// the error returns.
func StartSession(cfg SessionConfig) (*Session, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("launch: session ranks = %d < 1", cfg.Ranks)
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Minute
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	bin := cfg.WorkerBin
	if bin == "" {
		var err error
		if bin, err = ResolveWorker(); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: cfg, workers: make([]*sessWorker, cfg.Ranks), hardDeadline: cfg.Deadline}
	deadline := time.Now().Add(cfg.OpTimeout)
	if !cfg.Deadline.IsZero() && cfg.Deadline.Before(deadline) {
		if !cfg.Deadline.After(time.Now()) {
			return nil, fmt.Errorf("launch: session deadline exceeded before startup")
		}
		deadline = cfg.Deadline
	}

	w0, err := s.startSessionWorker(bin, 0, "")
	if err != nil {
		return nil, err
	}
	s.workers[0] = w0
	var rendezvous string
	if cfg.Ranks > 1 {
		fr := w0.await(deadline)
		if fr.err != nil {
			s.reap()
			return nil, fmt.Errorf("launch: rank 0 never published a rendezvous address: %w", fr.err)
		}
		if fr.verb != SessRendezvous {
			s.reap()
			return nil, fmt.Errorf("launch: rank 0 sent %s before the rendezvous address", verbName(fr.verb))
		}
		rendezvous = string(fr.body)
	}
	for r := 1; r < cfg.Ranks; r++ {
		w, err := s.startSessionWorker(bin, r, rendezvous)
		if err != nil {
			s.reap()
			return nil, fmt.Errorf("launch: spawning session rank %d: %w", r, err)
		}
		s.workers[r] = w
	}

	spec, err := json.Marshal(cfg.Spec)
	if err != nil {
		s.reap()
		return nil, fmt.Errorf("launch: encoding engine spec: %w", err)
	}
	if _, err := s.op(SessInit, func(int) []byte { return spec }); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Session) startSessionWorker(bin string, rank int, rendezvous string) (*sessWorker, error) {
	args := []string{
		"-session",
		"-rank", strconv.Itoa(rank),
		"-np", strconv.Itoa(s.cfg.Ranks),
	}
	if s.cfg.IdleTimeout > 0 {
		args = append(args, "-idle-timeout", s.cfg.IdleTimeout.String())
	}
	if rank != 0 {
		args = append(args, "-rendezvous", rendezvous)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = s.cfg.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &sessWorker{
		rank:   rank,
		cmd:    cmd,
		stdin:  stdin,
		frames: make(chan sessFrame, 4),
		done:   make(chan struct{}),
	}
	go w.readLoop(stdout)
	return w, nil
}

// readLoop parses the worker's stdout frames until the stream ends, then
// reaps the process. Lockstep means at most one reply is ever in flight,
// so the buffered channel never blocks a healthy worker; a misbehaving
// one is throttled here and killed by the launcher's next deadline.
func (w *sessWorker) readLoop(stdout io.Reader) {
	defer close(w.done)
	br := bufio.NewReaderSize(stdout, 1<<16)
	for {
		verb, body, err := ReadSessionFrame(br)
		if err != nil {
			waitErr := w.cmd.Wait()
			if err == io.EOF && waitErr != nil {
				err = fmt.Errorf("worker exited: %w", waitErr)
			} else if err == io.EOF {
				err = fmt.Errorf("worker closed its session stream")
			}
			w.frames <- sessFrame{err: err}
			return
		}
		w.frames <- sessFrame{verb: verb, body: body}
	}
}

// await returns the worker's next frame, or a timeout error at deadline.
func (w *sessWorker) await(deadline time.Time) sessFrame {
	select {
	case fr := <-w.frames:
		return fr
	case <-time.After(time.Until(deadline)):
		return sessFrame{err: fmt.Errorf("timeout waiting for worker reply")}
	}
}

func (w *sessWorker) kill() {
	w.once.Do(func() {
		if w.cmd.Process != nil {
			w.cmd.Process.Kill()
		}
	})
}

// op runs one lockstep exchange: the command frame is written to every
// rank concurrently (collective commands must reach all ranks before any
// reply is awaited, or the fleet would deadlock inside its collectives),
// then exactly one reply per rank is collected. body builds the per-rank
// payload; nil payloads are allowed. Any failure permanently fails the
// session and kills the fleet.
func (s *Session) op(verb byte, body func(rank int) []byte) ([]sessFrame, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.closed {
		return nil, fmt.Errorf("launch: session is closed")
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	if !s.hardDeadline.IsZero() && s.hardDeadline.Before(deadline) {
		// Already past the hard deadline: refuse before any frame is
		// written — no rank has seen the command, so the fleet stays
		// consistent and the session is NOT poisoned (the caller's
		// context expired, nothing failed).
		if !s.hardDeadline.After(time.Now()) {
			return nil, fmt.Errorf("launch: %s: deadline exceeded before the operation started", verbName(verb))
		}
		deadline = s.hardDeadline
	}

	writeErrs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for r, w := range s.workers {
		wg.Add(1)
		go func(r int, w *sessWorker) {
			defer wg.Done()
			var b []byte
			if body != nil {
				b = body(r)
			}
			writeErrs[r] = WriteSessionFrame(w.stdin, verb, b)
		}(r, w)
	}
	wg.Wait()
	for r, err := range writeErrs {
		if err != nil {
			return nil, s.fail(fmt.Errorf("launch: %s to rank %d: %w", verbName(verb), r, err))
		}
	}

	frames := make([]sessFrame, len(s.workers))
	var firstErr error
	for r, w := range s.workers {
		fr := w.await(deadline)
		switch {
		case fr.err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("launch: rank %d during %s: %w", r, verbName(verb), fr.err)
			}
		case fr.verb == SessErr:
			// A worker-reported failure names the root cause (the rank that
			// panicked) — prefer it over the EOFs of the peers it took down.
			firstErr = fmt.Errorf("launch: rank %d failed during %s: %s", r, verbName(verb), fr.body)
		}
		frames[r] = fr
	}
	if firstErr != nil {
		return nil, s.fail(firstErr)
	}
	s.absorbStatuses(verb, frames)
	return frames, nil
}

// absorbStatuses folds the statuses piggybacked on OK replies into the
// cached SessionStats, so Stats() stays wire-free.
func (s *Session) absorbStatuses(verb byte, frames []sessFrame) {
	st := SessionStats{Ranks: len(s.workers)}
	okSeen := false
	for _, fr := range frames {
		if fr.verb != SessOK {
			continue
		}
		status, err := DecodeStatus(fr.body)
		if err != nil {
			continue // stale counters beat failing a healthy data path
		}
		okSeen = true
		st.Messages += status.Messages
		st.Bytes += status.BytesSent
		st.Rows += status.Rows
		if status.Rank == 0 || st.Snapshots == 0 {
			st.Snapshots = status.Snapshots
			st.Iterations = status.Iterations
		}
	}
	if okSeen {
		// SAVE leaves rank 0 replying BLOB: keep the freshest global
		// counters we have rather than dropping to a partial sum.
		if st.Snapshots == 0 {
			st.Snapshots, st.Iterations = s.stats.Snapshots, s.stats.Iterations
		}
		if st.Rows < s.stats.Rows {
			st.Rows = s.stats.Rows
		}
		if st.Messages < s.stats.Messages {
			st.Messages = s.stats.Messages
		}
		if st.Bytes < s.stats.Bytes {
			st.Bytes = s.stats.Bytes
		}
		s.stats = st
	}
}

// fail marks the session permanently failed and kills the fleet. The
// original error sticks: later operations keep reporting it.
func (s *Session) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	s.reap()
	return s.failed
}

// reap kills every worker and waits for the processes to be collected,
// draining any frames still in flight so the reader goroutines can exit.
// After reap returns, the session holds no processes and no goroutines.
func (s *Session) reap() {
	for _, w := range s.workers {
		if w != nil {
			w.kill()
		}
	}
	for _, w := range s.workers {
		if w != nil {
			w.drain()
		}
	}
}

// drain consumes frames until the worker's reader goroutine has exited
// and the process is reaped, then empties the leftovers.
func (w *sessWorker) drain() {
	for {
		select {
		case <-w.frames:
		case <-w.done:
			for {
				select {
				case <-w.frames:
				default:
					return
				}
			}
		}
	}
}

// Push scatters one global snapshot batch across the fleet: rows are
// partitioned contiguously (the same grid.Partition split the in-process
// parallel backend uses, so the two backends are bit-compatible) and each
// rank receives exactly its block. The first Push pins the global row
// count and seeds the decomposition; later pushes stream.
//
// Validation happens here, before any frame is written: a batch that
// would be rejected (dimension mismatch, non-finite values) is reported
// as a plain error and does NOT fail the session — no rank has seen it,
// so the fleet stays consistent and usable.
func (s *Session) Push(b *mat.Dense) error { return s.push(b, nil) }

// PushSketch scatters one compressed snapshot batch: each rank receives
// its contiguous row block of the orthonormal sketch basis q (the same
// split Push uses) plus the full L×B projection sk, and the workers apply
// the pair in the same collective update PUSH drives (a first batch,
// which seeds APMOS, is multiplied out there). Only L·(M_r+B) floats
// cross the wire per rank instead of the raw M_r×B block. Validation is
// Push's, so a bad pair does not fail the session either.
func (s *Session) PushSketch(q, sk *mat.Dense) error { return s.push(q, sk) }

// push validates and scatters the batch x·sk (sk nil: x is the raw
// batch) as PUSH or PUSH-SKETCH frames.
func (s *Session) push(x, sk *mat.Dense) error {
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return fmt.Errorf("launch: session is closed")
	}
	if x == nil || x.IsEmpty() || (sk != nil && sk.IsEmpty()) {
		return fmt.Errorf("launch: empty snapshot batch")
	}
	if sk != nil && x.Cols() != sk.Rows() {
		return fmt.Errorf("launch: factor pair has mismatched inner dimension: Q is %dx%d, S is %dx%d",
			x.Rows(), x.Cols(), sk.Rows(), sk.Cols())
	}
	if s.rows == 0 {
		if x.Rows() < s.cfg.Ranks {
			return fmt.Errorf("launch: %d snapshot rows cannot be split across %d ranks", x.Rows(), s.cfg.Ranks)
		}
	} else if x.Rows() != s.rows {
		return fmt.Errorf("launch: batch has %d rows, want %d", x.Rows(), s.rows)
	}
	for _, m := range []*mat.Dense{x, sk} {
		if m == nil {
			continue
		}
		for _, v := range m.RawData() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("launch: snapshot batch contains a non-finite value (%g)", v)
			}
		}
	}
	parts := s.parts
	if s.rows == 0 {
		parts = grid.Partition(x.Rows(), s.cfg.Ranks)
	}
	verb, body := SessPush, func(r int) []byte {
		return EncodeBlock(x.SliceRows(parts[r].Start, parts[r].End))
	}
	if sk != nil {
		verb, body = SessPushSketch, func(r int) []byte {
			return EncodeFactorPair(x.SliceRows(parts[r].Start, parts[r].End), sk)
		}
	}
	if _, err := s.op(verb, body); err != nil {
		return err
	}
	if s.rows == 0 {
		s.rows, s.parts = x.Rows(), parts
	}
	return nil
}

// Spectrum returns the current truncated singular values. Every rank
// reports its copy (they advance in lockstep through the closing
// broadcast of each update); a disagreement is a protocol violation and
// fails the session.
func (s *Session) Spectrum() ([]float64, error) {
	frames, err := s.op(SessSpectrum, nil)
	if err != nil {
		return nil, err
	}
	var root []float64
	for r, fr := range frames {
		if fr.verb != SessFloats {
			return nil, s.fail(fmt.Errorf("launch: rank %d replied %s to SPECTRUM", r, verbName(fr.verb)))
		}
		v, err := DecodeFloats(fr.body)
		if err != nil {
			return nil, s.fail(fmt.Errorf("launch: rank %d spectrum: %w", r, err))
		}
		if r == 0 {
			root = v
			continue
		}
		if !equalFloatsBits(root, v) {
			return nil, s.fail(fmt.Errorf("launch: rank %d disagrees with rank 0 on the spectrum", r))
		}
	}
	return root, nil
}

// ModesSHA gathers the global mode matrix at rank 0 (a collective) and
// returns its SHA-256 fingerprint — dims plus row-major IEEE-754 bits,
// the same HashModes digest the one-shot protocol reports.
func (s *Session) ModesSHA() (string, error) {
	frames, err := s.op(SessModesSHA, nil)
	if err != nil {
		return "", err
	}
	status, err := DecodeStatus(frames[0].body)
	if err != nil {
		return "", s.fail(fmt.Errorf("launch: rank 0 MODES-SHA reply: %w", err))
	}
	if status.ModesSHA == "" {
		return "", s.fail(fmt.Errorf("launch: rank 0 reported no modes hash"))
	}
	return status.ModesSHA, nil
}

// Stats returns the cached world counters (refreshed by every acknowledged
// operation); it never touches the wire.
func (s *Session) Stats() SessionStats {
	st := s.stats
	st.Ranks = s.cfg.Ranks
	return st
}

// RefreshStats runs one STATS round trip and returns the updated counters.
func (s *Session) RefreshStats() (SessionStats, error) {
	if _, err := s.op(SessStats, nil); err != nil {
		return SessionStats{}, err
	}
	return s.Stats(), nil
}

// Save gathers the global state at rank 0 (a collective) and returns a
// facade-compatible checkpoint: the exact serial-format bytes parsvd.Load
// (and core.LoadSerial) read, holding the gathered M×K modes, the
// spectrum and the counters. The decomposition keeps streaming afterwards.
func (s *Session) Save() ([]byte, error) {
	frames, err := s.op(SessSave, nil)
	if err != nil {
		return nil, err
	}
	if frames[0].verb != SessBlob {
		return nil, s.fail(fmt.Errorf("launch: rank 0 replied %s to SAVE", verbName(frames[0].verb)))
	}
	return frames[0].body, nil
}

// Close shuts the fleet down: a SHUTDOWN round trip (barrier, transport
// teardown, acknowledgment) followed by a bounded wait for every process
// to exit; stragglers are killed. Closing a failed session just reaps it.
// Close is idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	if s.failed != nil {
		s.closed = true
		s.reap()
		return nil
	}
	_, err := s.op(SessShutdown, nil)
	s.closed = true
	if err != nil {
		return err // op already reaped via fail
	}
	deadline := time.Now().Add(s.cfg.OpTimeout)
	for _, w := range s.workers {
		select {
		case <-w.done:
		case <-time.After(time.Until(deadline)):
			w.kill()
			<-w.done
		}
	}
	return nil
}

// SetDeadline caps every subsequent operation's round-trip deadline at t
// (in addition to OpTimeout); the zero time removes the cap. The facade
// maps a Fit context deadline here, restoring "ctx bounds the whole
// distributed run" semantics: an operation that would start past the
// deadline is refused cleanly before any frame is written (the session
// stays healthy), while one that is mid-wire when the deadline hits
// times out, kills the fleet and fails the session — a half-acknowledged
// collective cannot be resynchronized.
func (s *Session) SetDeadline(t time.Time) { s.hardDeadline = t }

// WorkerPIDs reports the fleet's process IDs in rank order (fault
// injection and diagnostics).
func (s *Session) WorkerPIDs() []int {
	pids := make([]int, len(s.workers))
	for r, w := range s.workers {
		if w != nil && w.cmd.Process != nil {
			pids[r] = w.cmd.Process.Pid
		}
	}
	return pids
}

// Failed reports the sticky session failure, nil while healthy.
func (s *Session) Failed() error { return s.failed }

// equalFloatsBits compares two float64 slices for exact bit equality
// (NaNs included).
func equalFloatsBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
