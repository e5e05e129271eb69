package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/launch"
)

// streamShape sizes the stream workloads.
type streamShape struct {
	M, B, K int
	// Rank and Decades shape the data: rank-Rank snapshots whose
	// singular values fall geometrically over Decades decades.
	Rank    int
	Decades float64
	// Pool is the number of distinct generated batches the stream
	// cycles through.
	Pool int
	// Warmup is the number of pushes after the initializing one that
	// belong to set-up (workspace warm-up).
	Warmup int
	// One Result read every ReadEvery pushes, one Save every SaveEvery.
	ReadEvery, SaveEvery int
	Setups               int
	// Tails are the fixed tail percentiles of push, read and reduce.
	Tails [3]float64
	// MinDigits is the correctness tolerance: the spectrum must agree
	// with the direct reference to at least this many digits.
	MinDigits float64
}

var serialShape = streamShape{
	M: 8192, B: 16, K: 10, Rank: 10, Decades: 5, Pool: 32, Warmup: 3,
	ReadEvery: 2, SaveEvery: 2, Setups: 5,
	Tails: [3]float64{95, 90, 90}, MinDigits: 8,
}

// distributedShape runs the same stream on 2 worker processes. Three
// processes sharing 2 vCPUs over pipes give its push, read and save
// latencies a long tail whose weight changes from run to run, so its
// tails sit at lower percentiles than the serial ones.
var distributedShape = func() streamShape {
	sh := serialShape
	sh.Tails = [3]float64{90, 75, 75}
	return sh
}()

// streamRun is one stream workload in progress.
type streamRun struct {
	sh    streamShape
	pool  batchPool
	svd   *parsvd.SVD
	next  int   // index of the next batch in the stream
	acked []int // pool index of every acked batch, in push order
	buf   bytes.Buffer
}

func streamOptions(sh streamShape, distributed bool, cfg runConfig) []parsvd.Option {
	opts := []parsvd.Option{parsvd.WithModes(sh.K), parsvd.WithForgetFactor(1)}
	if distributed {
		opts = append(opts, parsvd.WithBackend(parsvd.Distributed), parsvd.WithRanks(2),
			parsvd.WithTransport(parsvd.TransportConfig{WorkerBin: cfg.workerBin, Stderr: os.Stderr}))
	}
	return opts
}

// runStream runs stream-serial or stream-distributed: one caller pushes
// the seeded stream in a closed loop, reading the Result every
// ReadEvery pushes and saving a checkpoint every SaveEvery.
func runStream(cfg runConfig, sh streamShape, distributed bool) (*outcome, error) {
	if distributed {
		if err := checkWorker(cfg.workerBin); err != nil {
			return nil, err
		}
	}
	lr := newLowRank(rngFor(cfg.seed, streamBasis), sh.M, sh.Rank, sh.Decades)
	st := &streamRun{sh: sh, pool: lr.pool(rngFor(cfg.seed, streamBatches), sh.Pool, sh.B)}
	opts := streamOptions(sh, distributed, cfg)

	// Set-up: New, the initializing push and the warm-up pushes, plus a
	// first Result and Save so the timed reads start warm. Repeated, and
	// the last model kept.
	var setups []float64
	defer func() {
		if st.svd != nil {
			st.svd.Close()
		}
	}()
	for i := 0; i < sh.Setups; i++ {
		t0 := time.Now()
		svd, err := parsvd.New(opts...)
		if err != nil {
			return nil, err
		}
		for w := 0; w <= sh.Warmup; w++ {
			if err := svd.Push(st.pool.data[w%sh.Pool]); err != nil {
				svd.Close()
				return nil, fmt.Errorf("set-up push: %w", err)
			}
		}
		if _, err := svd.Result(); err != nil {
			svd.Close()
			return nil, fmt.Errorf("set-up result: %w", err)
		}
		if err := svd.Save(io.Discard); err != nil {
			svd.Close()
			return nil, fmt.Errorf("set-up save: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if st.svd != nil {
			st.svd.Close()
		}
		st.svd = svd
	}
	for w := 0; w <= sh.Warmup; w++ {
		st.acked = append(st.acked, w%sh.Pool)
	}
	st.next = sh.Warmup + 1

	out := &outcome{}
	var ph *opStats
	if cfg.trace {
		ts := newTraceSet()
		plain := st.phase(cfg.dur/2, nil)
		ph = st.phase(cfg.dur/2, ts.fork())
		pre := st.svd.Stats()
		extra := map[string]float64{}
		if err := probeLayers(ts.fork(), cfg, lr, st.pool, sh.K, nil, false, extra); err != nil {
			return nil, err
		}
		spans := ts.spans()
		layers := layerMetrics(spans, extra, sh.M, sh.B, sh.K)
		layers["trace.overhead_ms"] = median(ph.push.ms) - median(plain.push.ms)
		pushes := float64(pre.Updates)
		layers["parsvd.wire_bytes_per_push"] = float64(pre.WireBytes) / pushes
		layers["parsvd.comm_bytes_per_push"] = float64(pre.Bytes) / pushes
		layers["rla.compression"] = float64(pre.PushedBytes) / float64(pre.WireBytes)
		out.metrics = layers
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		if err := saveSpans(cfg, out, spans, streamName(distributed)); err != nil {
			return nil, err
		}
	} else {
		ph = st.phase(cfg.dur, nil)
	}
	out.attempted, out.failed = ph.attempted, ph.failed

	digits, err := st.check(out, distributed)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		if err := out.setEndToEnd(setups, ph, digits); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// phase runs the closed loop for d, recording spans into tr when it is
// non-nil.
func (st *streamRun) phase(d time.Duration, tr *tracer) *opStats {
	ph := newOpStats(st.sh.Tails)
	ph.timed(d, func(i int) bool {
		idx := st.next % st.sh.Pool
		st.next++
		sp := tr.begin("parsvd.push")
		t0 := time.Now()
		err := st.svd.Push(st.pool.data[idx])
		ph.record(&ph.push, time.Since(t0), err, st.sh.B)
		tr.end(sp)
		if err == nil {
			st.acked = append(st.acked, idx)
		}
		if (i+1)%st.sh.ReadEvery == 0 {
			sp := tr.begin("parsvd.result")
			t0 := time.Now()
			_, err := st.svd.Result()
			ph.record(&ph.read, time.Since(t0), err, 0)
			tr.end(sp)
		}
		if (i+1)%st.sh.SaveEvery == 0 {
			st.buf.Reset()
			sp := tr.begin("parsvd.save")
			t0 := time.Now()
			err := st.svd.Save(&st.buf)
			ph.record(&ph.reduce, time.Since(t0), err, 0)
			tr.end(sp)
		}
		return true
	})
	return ph
}

// check compares the final spectrum with the direct reference of the
// acked stream and, for the distributed backend, requires bit identity
// with an in-process Parallel(2) fit of the same stream. It returns the
// spectrum digits.
func (st *streamRun) check(out *outcome, distributed bool) (float64, error) {
	res, err := st.svd.Result()
	if err != nil {
		return 0, fmt.Errorf("final result: %w", err)
	}
	gs := make([]*parsvd.Matrix, len(st.acked))
	for i, idx := range st.acked {
		gs[i] = st.pool.g[idx]
	}
	ref, err := referenceSpectrum(gs, st.sh.K)
	if err != nil {
		return 0, fmt.Errorf("reference spectrum: %w", err)
	}
	digits := spectrumDigits(res.Singular, ref)
	out.check(len(res.Singular) == len(ref), "spectrum has %d values, reference %d", len(res.Singular), len(ref))
	out.check(digits >= st.sh.MinDigits, "spectrum agrees with the direct reference to %.2f digits, need %g", digits, st.sh.MinDigits)
	out.check(res.Snapshots == len(st.acked)*st.sh.B, "result counts %d snapshots, %d acked", res.Snapshots, len(st.acked)*st.sh.B)
	out.note("check: %d pushes acked, spectrum digits %.3f (need %g)", len(st.acked), digits, st.sh.MinDigits)
	if !distributed {
		return digits, nil
	}

	par, err := parsvd.New(parsvd.WithModes(st.sh.K), parsvd.WithForgetFactor(1),
		parsvd.WithBackend(parsvd.Parallel), parsvd.WithRanks(2))
	if err != nil {
		return 0, err
	}
	defer par.Close()
	for _, idx := range st.acked {
		if err := par.Push(st.pool.data[idx]); err != nil {
			return 0, fmt.Errorf("parallel reference push: %w", err)
		}
	}
	pres, err := par.Result()
	if err != nil {
		return 0, fmt.Errorf("parallel reference result: %w", err)
	}
	same := len(pres.Singular) == len(res.Singular)
	for i := 0; same && i < len(res.Singular); i++ {
		same = math.Float64bits(pres.Singular[i]) == math.Float64bits(res.Singular[i])
	}
	out.check(same, "distributed spectrum is not bit-identical to the in-process Parallel(2) fit")
	hash := launch.HashModes(pres.Modes)
	out.check(hash == res.ModesSHA256, "distributed modes hash %s != Parallel(2) modes hash %s", res.ModesSHA256, hash)
	out.note("check: distributed bit-identical to Parallel(2): %v", same && hash == res.ModesSHA256)
	return digits, nil
}

func streamName(distributed bool) string {
	if distributed {
		return "stream-distributed"
	}
	return "stream-serial"
}
