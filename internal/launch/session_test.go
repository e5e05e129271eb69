package launch

import (
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"goparsvd/internal/core"
	"goparsvd/internal/mpi"
	"goparsvd/internal/postproc"
	"goparsvd/internal/scaling"
)

// sessionWorkload is a sub-second streaming job that still exercises
// every collective (APMOS init, TSQR exchange, broadcast, gather).
func sessionWorkload() scaling.StreamWorkload {
	return scaling.StreamWorkload{
		RowsPerRank: 64,
		Snapshots:   48,
		InitBatch:   12,
		Batch:       12,
		K:           6,
		R1:          16,
		FF:          0.95,
		Seed:        7,
	}
}

func startTestSession(t *testing.T, ranks int, w scaling.StreamWorkload) *Session {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no Go toolchain to build parsvd-worker: %v", err)
	}
	s, err := StartSession(SessionConfig{
		Ranks: ranks,
		Spec:  EngineSpec{K: w.K, FF: w.FF, R1: w.R1},
	})
	if err != nil {
		t.Fatalf("starting session: %v", err)
	}
	return s
}

// pushWorkload feeds the workload's global batches into the session.
func pushWorkload(t *testing.T, s *Session, ranks int, w scaling.StreamWorkload) {
	t.Helper()
	bc := w.BurgersConfig(ranks)
	for lo, hi := 0, w.BatchEnd(0); lo < w.Snapshots; lo, hi = hi, w.BatchEnd(hi) {
		if err := s.Push(bc.Block(0, bc.Nx, lo, hi)); err != nil {
			t.Fatalf("push [%d,%d): %v", lo, hi, err)
		}
	}
}

// TestSessionWireFedMatchesInProcess is the session-protocol acceptance
// test and the `make smoke` gate: a persistent fleet of real worker
// processes fed snapshot blocks over its stdin must reproduce the
// in-process channel-transport run of the identical batches bit for bit
// (spectrum and gathered-modes hash), agree on σ across every rank, stay
// within tolerance of the serial streaming reference, and save a
// checkpoint that loads as a serial engine holding that exact state.
func TestSessionWireFedMatchesInProcess(t *testing.T) {
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			testSessionWireFed(t, ranks)
		})
	}
}

func testSessionWireFed(t *testing.T, ranks int) {
	w := sessionWorkload()
	s := startTestSession(t, ranks, w)
	defer s.Close()
	pushWorkload(t, s, ranks, w)

	// Spectrum collects every rank's copy and fails the session unless
	// they all match rank 0's bit for bit.
	singular, err := s.Spectrum()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	sha, err := s.ModesSHA()
	if err != nil {
		t.Fatalf("modes sha: %v", err)
	}

	// In-process reference on the identical workload.
	var ref scaling.StreamResult
	if _, err := mpi.Run(ranks, func(c *mpi.Comm) {
		r := scaling.RunStream(c, w)
		if c.Rank() == 0 {
			ref = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(singular) != len(ref.Singular) {
		t.Fatalf("spectrum length %d, want %d", len(singular), len(ref.Singular))
	}
	for i := range singular {
		if math.Float64bits(singular[i]) != math.Float64bits(ref.Singular[i]) {
			t.Errorf("sigma[%d]: wire-fed %g differs from in-process %g", i, singular[i], ref.Singular[i])
		}
	}
	if want := HashModes(ref.Modes); sha != want {
		t.Errorf("modes hash: wire-fed %s, in-process %s", sha, want)
	}

	// The distributed result matches the serial streaming engine within
	// tolerance (different arithmetic path, same decomposition). The
	// in-process modes hash equals the wire-fed one (checked above), so
	// comparing the in-process modes against serial covers the fleet's.
	ser := scaling.RunStreamSerial(ranks, w)
	if len(singular) != len(ser.Singular) {
		t.Fatalf("mode count: wire-fed %d, serial %d", len(singular), len(ser.Singular))
	}
	for i := range singular {
		if d := math.Abs(singular[i] - ser.Singular[i]); d > 1e-6*math.Max(1, ser.Singular[i]) {
			t.Errorf("sigma[%d]: wire-fed %g vs serial %g", i, singular[i], ser.Singular[i])
		}
	}
	for _, e := range postproc.CompareModes(ser.Modes, ref.Modes)[:2] {
		if e.MaxAbs > 1e-4 {
			t.Errorf("mode %d: max|serial-distributed| = %.3e, want < 1e-4", e.Mode+1, e.MaxAbs)
		}
	}

	// The gathered checkpoint is a facade-compatible serial checkpoint of
	// exactly this state.
	blob, err := s.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	eng, err := core.LoadSerial(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("loading gathered checkpoint: %v", err)
	}
	if got := eng.SingularValues(); !equalFloatsBits(got, singular) {
		t.Errorf("checkpoint spectrum differs from the live session's")
	}
	if r, c := eng.Modes().Dims(); r != w.RowsPerRank*ranks || c != w.K {
		t.Errorf("checkpoint modes are %dx%d, want %dx%d", r, c, w.RowsPerRank*ranks, w.K)
	}
	if eng.SnapshotsSeen() != w.Snapshots {
		t.Errorf("checkpoint snapshots = %d, want %d", eng.SnapshotsSeen(), w.Snapshots)
	}

	// Traffic counters made it across the process boundary.
	st := s.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Errorf("session traffic counters empty: %+v", st)
	}
	if st.Snapshots != w.Snapshots || st.Rows != w.RowsPerRank*ranks {
		t.Errorf("session ingest counters: %+v", st)
	}
	wantIters := (w.Snapshots - w.InitBatch) / w.Batch
	if st.Iterations != wantIters {
		t.Errorf("session iterations = %d, want %d", st.Iterations, wantIters)
	}
	t.Logf("%d-rank session: %d msgs, %d bytes sent", ranks, st.Messages, st.Bytes)

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWorkerFailurePropagates: a lone rank 0 of a 2-rank world never
// completes its rendezvous, so it must give up after its dial timeout and
// exit nonzero instead of hanging.
func TestWorkerFailurePropagates(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no Go toolchain to build parsvd-worker: %v", err)
	}
	bin, err := ResolveWorker()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-rank", "0", "-np", "2", "-dial-timeout", "2s")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("lone rank 0 of a 2-rank world exited cleanly:\n%s", out)
	}
}

// TestSessionRejectsBadBatchesWithoutPoisoning: validation failures are
// caught before any frame reaches a worker, so the fleet survives them.
func TestSessionRejectsBadBatchesWithoutPoisoning(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	s := startTestSession(t, ranks, w)
	defer s.Close()
	bc := w.BurgersConfig(ranks)

	if err := s.Push(nil); err == nil {
		t.Fatal("nil batch did not error")
	}
	bad := bc.Block(0, bc.Nx, 0, 4)
	bad.Set(3, 1, math.NaN())
	if err := s.Push(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN batch error = %v, want non-finite rejection", err)
	}
	if s.Failed() != nil {
		t.Fatalf("validation failure poisoned the session: %v", s.Failed())
	}

	// The fleet is still fully usable.
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatalf("push after rejected batches: %v", err)
	}
	if err := s.Push(bc.Block(0, bc.Nx-1, w.InitBatch, w.InitBatch+4)); err == nil || s.Failed() != nil {
		t.Fatalf("row-mismatch batch: err=%v failed=%v, want plain rejection", err, s.Failed())
	}
	if _, err := s.Spectrum(); err != nil {
		t.Fatalf("spectrum after rejections: %v", err)
	}

	// An expired hard deadline (a Fit context deadline mapped down by the
	// facade) refuses the operation before any frame is written: the
	// session survives and resumes once the deadline is lifted.
	s.SetDeadline(time.Now().Add(-time.Second))
	if err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+4)); err == nil {
		t.Fatal("push past the hard deadline did not error")
	}
	if s.Failed() != nil {
		t.Fatalf("expired deadline poisoned the session: %v", s.Failed())
	}
	s.SetDeadline(time.Time{})
	if err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+4)); err != nil {
		t.Fatalf("push after lifting the deadline: %v", err)
	}
}

// TestSessionWorkerDeathFailsFast: SIGKILLing one rank mid-stream must
// fail the next operation promptly (not hang until some large timeout),
// reap the whole fleet, leave the session permanently failed, and leak no
// goroutines.
func TestSessionWorkerDeathFailsFast(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	before := runtime.NumGoroutine()
	s := startTestSession(t, ranks, w)
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatalf("seed push: %v", err)
	}

	pids := s.WorkerPIDs()
	if len(pids) != ranks || pids[1] == 0 {
		t.Fatalf("worker pids: %v", pids)
	}
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 1: %v", err)
	}

	start := time.Now()
	err := s.Push(bc.Block(0, bc.Nx, w.InitBatch, w.InitBatch+w.Batch))
	if err == nil {
		t.Fatal("push into a dead fleet did not error")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failure took %v to surface; want fast detection, not a timeout crawl", elapsed)
	}
	if s.Failed() == nil {
		t.Fatal("worker death did not permanently fail the session")
	}
	// The failure is sticky: every later operation reports it immediately.
	if _, err2 := s.Spectrum(); err2 == nil {
		t.Fatal("spectrum on a failed session did not error")
	}
	if _, err2 := s.Save(); err2 == nil {
		t.Fatal("save on a failed session did not error")
	}

	// The whole fleet (rank 0 included) is reaped: signal 0 probes fail.
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for time.Now().Before(deadline) {
			if syscall.Kill(pid, 0) != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still alive after session failure", pid)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after failure: %v", err)
	}

	// No goroutines leaked by the session (reader loops, writers).
	waitForGoroutines(t, before)
}

// TestSessionCloseLeavesNoGoroutines: a clean start→push→close cycle
// returns the process to its previous goroutine count.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	const ranks = 2
	w := sessionWorkload()
	before := runtime.NumGoroutine()
	s := startTestSession(t, ranks, w)
	bc := w.BurgersConfig(ranks)
	if err := s.Push(bc.Block(0, bc.Nx, 0, w.InitBatch)); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Push(bc.Block(0, bc.Nx, 0, 4)); err == nil {
		t.Fatal("push after close did not error")
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count settles back to (or
// below) the baseline, tolerating runtime background noise.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
}
