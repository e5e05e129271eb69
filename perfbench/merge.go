package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	parsvd "goparsvd"
)

// mergeShape sizes the merge-reduce workload.
type mergeShape struct {
	M, K int
	// Shards checkpoints of ShardSnapshots snapshots each, all spanning
	// one rank-K subspace, so the reduce is exact up to roundoff.
	Shards, ShardSnapshots int
	Decades                float64
	// After each reduce the merged model takes PushesPerReduce pushes
	// of B-wide batches and answers ReadsPerReduce projections of
	// ProjectCols columns: a coordinator installs the reduced model and
	// streaming continues.
	B, PushesPerReduce, ReadsPerReduce, ProjectCols int
	Pool                                            int
	Setups                                          int
	Tails                                           [3]float64
	MinDigits                                       float64
}

var mergeReduceShape = mergeShape{
	M: 4096, K: 16, Shards: 8, ShardSnapshots: 64, Decades: 5,
	B: 16, PushesPerReduce: 2, ReadsPerReduce: 4, ProjectCols: 8, Pool: 8,
	Setups: 5, Tails: [3]float64{90, 95, 75}, MinDigits: 8,
}

type mergeRun struct {
	sh      mergeShape
	blobs   [][]byte         // shard checkpoints
	shardG  []*parsvd.Matrix // coefficient block of each shard's data
	pool    batchPool
	project []*parsvd.Matrix
	first   []float64 // spectrum of the first reduce
	stats   parsvd.Stats
	drift   bool // a reduce's spectrum differed from the first one's
}

// genCheckpoints builds n checkpoints with WriteCheckpoint from seeded
// bases and spectra: checkpoint i holds U_i = W·O_i (O_i a seeded r×r
// orthogonal matrix, r = K) with a jittered geometric spectrum Σ_i, so
// its data is W·(O_i·Σ_i) and no fitting is needed. It returns each
// checkpoint with that coefficient block. With marked set, checkpoint i
// carries the provenance mark of shard i of n.
func genCheckpoints(rng *rand.Rand, lr lowRank, n, snapshots int, marked bool) ([][]byte, []*parsvd.Matrix, error) {
	k := len(lr.s)
	var blobs [][]byte
	var gs []*parsvd.Matrix
	for i := 0; i < n; i++ {
		o := orthonormal(rng, k, k)
		sigma := make([]float64, k)
		for j, s := range lr.s {
			sigma[j] = s * (0.5 + rng.Float64())
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(sigma)))
		g := parsvd.MulDiag(o, sigma)
		res := &parsvd.Result{Modes: lr.expand(o), Singular: sigma, Iterations: 3, Snapshots: snapshots}
		var buf bytes.Buffer
		cfg := parsvd.Configuration{Modes: k, ForgetFactor: 1}
		if marked {
			cfg.Shard = parsvd.ShardInfo{Index: i, Count: n}
		}
		if err := parsvd.WriteCheckpoint(&buf, cfg, res); err != nil {
			return nil, nil, fmt.Errorf("writing shard checkpoint: %w", err)
		}
		blobs = append(blobs, buf.Bytes())
		gs = append(gs, g)
	}
	return blobs, gs, nil
}

func runMerge(cfg runConfig, sh mergeShape) (*outcome, error) {
	lr := newLowRank(rngFor(cfg.seed, streamBasis), sh.M, sh.K, sh.Decades)
	blobs, gs, err := genCheckpoints(rngFor(cfg.seed, streamShards), lr, sh.Shards, sh.ShardSnapshots, true)
	if err != nil {
		return nil, err
	}
	st := &mergeRun{sh: sh, blobs: blobs, shardG: gs,
		pool: lr.pool(rngFor(cfg.seed, streamBatches), sh.Pool, sh.B)}
	probeRng := rngFor(cfg.seed, streamProbe)
	for i := 0; i < 4; i++ {
		st.project = append(st.project, lr.expand(lr.coeffs(probeRng, sh.ProjectCols)))
	}

	// Set-up is the first reduce: from checkpoint bytes in memory to a
	// merged model with its Result. Repeated on fresh readers.
	var setups []float64
	for i := 0; i < sh.Setups; i++ {
		t0 := time.Now()
		svd, res, err := st.reduce(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up reduce: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		svd.Close()
		if st.first == nil {
			st.first = res.Singular
		}
	}

	out := &outcome{}
	var ph *opStats
	if cfg.trace {
		plain := st.phase(cfg.dur/2, nil)
		ts := newTraceSet()
		ph = st.phase(cfg.dur/2, ts.fork())
		extra := map[string]float64{}
		if err := probeLayers(ts.fork(), cfg, lr, st.pool, sh.K, st.blobs, false, extra); err != nil {
			return nil, err
		}
		spans := ts.spans()
		l := layerMetrics(spans, extra, sh.M, sh.B, sh.K)
		l["parsvd.wire_bytes_per_push"] = float64(st.stats.WireBytes) / float64(sh.PushesPerReduce)
		l["rla.compression"] = float64(st.stats.PushedBytes) / float64(st.stats.WireBytes)
		l["trace.overhead_ms"] = median(ph.reduce.ms) - median(plain.reduce.ms)
		out.metrics = l
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		if err := saveSpans(cfg, out, spans, "merge-reduce"); err != nil {
			return nil, err
		}
	} else {
		ph = st.phase(cfg.dur, nil)
	}
	out.attempted, out.failed = ph.attempted, ph.failed

	digits, err := st.check(out)
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

// reduce runs MergeReaders over fresh readers of every shard and reads
// the merged Result.
func (st *mergeRun) reduce(tr *tracer) (*parsvd.SVD, *parsvd.Result, error) {
	readers := make([]io.Reader, len(st.blobs))
	for i, b := range st.blobs {
		readers[i] = bytes.NewReader(b)
	}
	sp := tr.begin("parsvd.merge_readers")
	svd, err := parsvd.MergeReaders(readers...)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("parsvd.result")
	res, err := svd.Result()
	tr.end(sp)
	if err != nil {
		svd.Close()
		return nil, nil, err
	}
	return svd, res, nil
}

// phase runs reduce → pushes → reads in a closed loop for d.
func (st *mergeRun) phase(d time.Duration, tr *tracer) *opStats {
	ph := newOpStats(st.sh.Tails)
	ph.timed(d, func(i int) bool {
		root := tr.begin("reduce")
		t0 := time.Now()
		svd, res, err := st.reduce(tr)
		tr.end(root)
		ph.record(&ph.reduce, time.Since(t0), err, st.sh.Shards*st.sh.ShardSnapshots)
		if err != nil {
			return true
		}
		defer svd.Close()
		if !sameBits(res.Singular, st.first) {
			st.drift = true
		}
		for p := 0; p < st.sh.PushesPerReduce; p++ {
			a := st.pool.data[(i*st.sh.PushesPerReduce+p)%st.sh.Pool]
			sp := tr.begin("parsvd.push")
			t0 := time.Now()
			err := svd.Push(a)
			ph.record(&ph.push, time.Since(t0), err, st.sh.B)
			tr.end(sp)
		}
		for r := 0; r < st.sh.ReadsPerReduce; r++ {
			sp := tr.begin("parsvd.coefficients")
			t0 := time.Now()
			_, err := svd.Coefficients(st.project[(i+r)%len(st.project)])
			ph.record(&ph.read, time.Since(t0), err, 0)
			tr.end(sp)
		}
		st.stats = svd.Stats()
		return true
	})
	return ph
}

func sameBits(a, b []float64) bool {
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

// check compares the reduce's spectrum with the direct reference of the
// shards' data, requires every reduce to give the same bits, and checks
// a reduce followed by the pushes against the reference of shards plus
// pushed batches. It returns the reduce's spectrum digits.
func (st *mergeRun) check(out *outcome) (float64, error) {
	ref, err := referenceSpectrum(st.shardG, st.sh.K)
	if err != nil {
		return 0, fmt.Errorf("reference spectrum: %w", err)
	}
	digits := spectrumDigits(st.first, ref)
	out.check(digits >= st.sh.MinDigits, "reduced spectrum agrees with the direct reference to %.2f digits, need %g", digits, st.sh.MinDigits)
	out.check(!st.drift, "repeated reduces of the same checkpoints gave different spectra")

	svd, _, err := st.reduce(nil)
	if err != nil {
		return 0, fmt.Errorf("check reduce: %w", err)
	}
	defer svd.Close()
	gs := append([]*parsvd.Matrix(nil), st.shardG...)
	for p := 0; p < st.sh.PushesPerReduce; p++ {
		if err := svd.Push(st.pool.data[p%st.sh.Pool]); err != nil {
			return 0, fmt.Errorf("check push: %w", err)
		}
		gs = append(gs, st.pool.g[p%st.sh.Pool])
	}
	res, err := svd.Result()
	if err != nil {
		return 0, err
	}
	pref, err := referenceSpectrum(gs, st.sh.K)
	if err != nil {
		return 0, fmt.Errorf("reference spectrum: %w", err)
	}
	pushed := spectrumDigits(res.Singular, pref)
	out.check(pushed >= st.sh.MinDigits, "reduce + push agrees with the direct reference to %.2f digits, need %g", pushed, st.sh.MinDigits)
	out.check(svd.MergeBound() <= 1e-8*st.first[0], "merge bound %g on exactly rank-K shards", svd.MergeBound())
	out.note("check: reduce digits %.3f, reduce+push digits %.3f (need %g), merge bound %.3g",
		digits, pushed, st.sh.MinDigits, svd.MergeBound())
	return digits, nil
}
