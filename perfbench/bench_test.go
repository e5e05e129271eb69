package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	parsvd "goparsvd"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, pick float64
	}{
		{1000, 99, 99},   // 10 beyond p99
		{999, 99, 98},    // 9 beyond p99, 19 beyond p98
		{200, 95, 95},    // exactly 10 beyond
		{199, 95, 90},    // one short
		{100000, 95, 95}, // never above the fixed percentile
		{40, 90, 75},
		{20, 90, 50},
		{5, 95, 50}, // too few for any tail: the median
	} {
		if got := tailPercentile(c.n, c.want); got != c.pick {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.pick)
		}
		if got := tailPercentile(c.n, c.want); c.n >= 20 && beyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
		{ID: 5, Parent: -1, Name: "leaf", Start: 200, End: 260},
	}
	// root: 100 − |[10,50] ∪ [90,100]| = 100 − 50; b: 30 − 10.
	want := []int64{50, 20, 20, 30, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfMS(spans)
	if v := byName["root"]; len(v) != 1 || math.Abs(v[0]-50e-6) > 1e-15 {
		t.Errorf("selfMS root = %v", v)
	}
}

func TestTracer(t *testing.T) {
	var off *traceSet
	tr := off.fork()
	id := tr.begin("x")
	tr.end(id)
	if off.spans() != nil {
		t.Error("a nil trace set recorded spans")
	}

	ts := newTraceSet()
	a, b := ts.fork(), ts.fork()
	root := a.begin("op")
	child := a.begin("child")
	a.end(child)
	a.end(root)
	other := b.begin("op")
	b.end(other)
	spans := ts.spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.ID != i {
			t.Errorf("span %d has ID %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Parent != 0 || spans[1].Op != spans[0].Op {
		t.Errorf("child span %+v not under its root %+v", spans[1], spans[0])
	}
	if spans[2].Parent != -1 || spans[2].Op == spans[0].Op {
		t.Errorf("second goroutine's span %+v shares the first operation", spans[2])
	}
}

func TestSpectrumDigits(t *testing.T) {
	want := []float64{1, 1e-3, 1e-5}
	if got := spectrumDigits(want, want); got != 17 {
		t.Errorf("identical spectra: %g digits", got)
	}
	got := spectrumDigits([]float64{1, 1e-3, 1e-5 * (1 + 1e-6)}, want)
	if math.Abs(got-6) > 1e-6 {
		t.Errorf("relative error 1e-6 on the smallest value: %g digits", got)
	}
	if got := spectrumDigits(want[:2], want); got != 0 {
		t.Errorf("missing value: %g digits", got)
	}
}

// The stream reference is a TruncatedSVD of the coefficient blocks; it
// must match a TruncatedSVD of the materialized data.
func TestReferenceMatchesMaterializedData(t *testing.T) {
	lr := newLowRank(rngFor(3, streamBasis), 80, 5, 5)
	pool := lr.pool(rngFor(3, streamBatches), 4, 6)
	ref, err := referenceSpectrum(pool.g, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, direct, _, err := parsvd.TruncatedSVD(parsvd.HStack(pool.data...), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := spectrumDigits(ref, direct); d < 10 {
		t.Errorf("coefficient reference agrees with the materialized data to %.2f digits", d)
	}
	again := newLowRank(rngFor(3, streamBasis), 80, 5, 5).pool(rngFor(3, streamBatches), 4, 6)
	if !sameBits(again.data[3].RawData(), pool.data[3].RawData()) {
		t.Error("the same seed generated different inputs")
	}
}

// Tiny-shape runs of every workload, untraced and traced, with their
// correctness checks.
func TestWorkloadsSmoke(t *testing.T) {
	worker := filepath.Join(t.TempDir(), "parsvd-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "goparsvd/cmd/parsvd-worker").CombinedOutput(); err != nil {
		t.Fatalf("building parsvd-worker: %v\n%s", err, out)
	}
	stream := streamShape{M: 96, B: 4, K: 4, Rank: 4, Decades: 5, Pool: 4, Warmup: 1,
		ReadEvery: 2, SaveEvery: 2, Setups: 2, Tails: [3]float64{95, 90, 90}, MinDigits: 8}
	serve := serveShape{M: 64, B: 4, K: 4, SketchB: 16, Rank: 4, Decades: 5, Pool: 4, SketchPool: 2,
		ProjectCols: 2, Clients: 2, Mix: serveMixedShape.Mix, Setups: 2, Tails: [3]float64{95, 90, 75},
		MinDigits: 8, OpTimeout: 10 * time.Second, Warmup: 50 * time.Millisecond}
	mrg := mergeShape{M: 64, K: 4, Shards: 4, ShardSnapshots: 8, Decades: 5, B: 4, PushesPerReduce: 2,
		ReadsPerReduce: 2, ProjectCols: 2, Pool: 4, Setups: 2, Tails: [3]float64{90, 95, 75}, MinDigits: 8}
	runs := map[string]func(runConfig) (*outcome, error){
		"stream-serial":      func(c runConfig) (*outcome, error) { return runStream(c, stream, false) },
		"stream-distributed": func(c runConfig) (*outcome, error) { return runStream(c, stream, true) },
		"serve-mixed":        func(c runConfig) (*outcome, error) { return runServe(c, serve) },
		"merge-reduce":       func(c runConfig) (*outcome, error) { return runMerge(c, mrg) },
	}
	if len(runs) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(runs), len(workloads))
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 7, dur: 300 * time.Millisecond, trace: trace,
				workDir: t.TempDir(), workerBin: worker}
			out, err := run(cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
				continue
			}
			if len(out.failures) > 0 {
				t.Errorf("%s trace=%v: checks failed: %v", name, trace, out.failures)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", name, trace, out.attempted, out.failed)
			}
			units := endToEnd
			if trace {
				units = perLayer
			}
			for metric := range units {
				v, ok := out.metrics[metric]
				switch {
				case !ok || math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, metric, v)
				case !trace && v <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, metric, v)
				case trace && units[metric] == "ms" && v == 0:
					t.Errorf("%s: per-layer time %s was not measured", name, metric)
				}
			}
		}
	}
}
