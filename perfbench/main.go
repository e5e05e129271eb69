// Command perfbench is the end-to-end benchmark of goparsvd: seeded
// streaming-SVD workloads driven through the public API (the facade, the
// serve tier and the merge reduce), checked for correctness, and
// reported as one JSON line. See README.md for the workloads and
// metrics, and run.sh for how it is built and run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a separate traced run. It exits 1
// when a correctness check fails and 2 when the run itself cannot be
// carried out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
	// workDir holds every file the run writes (WAL directories, spans):
	// .bench_build/run under the directory the benchmark runs from.
	workDir string
	// workerBin is the prebuilt parsvd-worker for the distributed
	// backend, so no worker build lands in a timed region.
	workerBin string
}

// outcome is what a workload reports back to main.
type outcome struct {
	failures  []string // failed correctness checks, empty when correct
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // human-readable lines printed before the result
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to its runner at benchmark shape.
var workloads = map[string]func(runConfig) (*outcome, error){
	"stream-serial":      func(c runConfig) (*outcome, error) { return runStream(c, serialShape, false) },
	"stream-distributed": func(c runConfig) (*outcome, error) { return runStream(c, distributedShape, true) },
	"serve-mixed":        func(c runConfig) (*outcome, error) { return runServe(c, serveMixedShape) },
	"merge-reduce":       func(c runConfig) (*outcome, error) { return runMerge(c, mergeReduceShape) },
}

// endToEnd lists the metrics of an untraced run with their units.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"snapshots_per_s": "1/s",
	"push_p50_ms":     "ms",
	"push_tail_ms":    "ms",
	"read_p50_ms":     "ms",
	"read_tail_ms":    "ms",
	"reduce_p50_ms":   "ms",
	"reduce_tail_ms":  "ms",
	"spectrum_digits": "digits",
	"peak_rss_mb":     "MB",
}

// perLayer lists the metrics of a traced run with their units.
var perLayer = map[string]string{
	"parsvd.push_ms":             "ms",
	"parsvd.wire_bytes_per_push": "bytes",
	"parsvd.comm_bytes_per_push": "bytes",
	"stream.update_ms":           "ms",
	"stream.qr_share":            "ratio",
	"linalg.qr_ms":               "ms",
	"linalg.qr_gflops":           "GFLOP/s",
	"linalg.svd_ms":              "ms",
	"mat.gemm_ms":                "ms",
	"mat.gemm_gflops":            "GFLOP/s",
	"core.parallel_update_ms":    "ms",
	"tsqr.gather_qr_ms":          "ms",
	"mpi.msgs_per_push":          "count",
	"mpi.bytes_per_push":         "bytes",
	"launch.encode_block_ms":     "ms",
	"launch.decode_block_ms":     "ms",
	"launch.overhead_ms":         "ms",
	"launch.fleet_start_ms":      "ms",
	"launch.worker_peak_rss_mb":  "MB",
	"rla.sketch_ms":              "ms",
	"rla.compression":            "ratio",
	"client.json_encode_ms":      "ms",
	"server.json_decode_ms":      "ms",
	"server.body_bytes_per_push": "bytes",
	"server.engine_apply_ms":     "ms",
	"server.http_overhead_ms":    "ms",
	"server.updates_per_push":    "ratio",
	"server.queue_depth_mean":    "count",
	"server.rejected":            "count",
	"server.spectrum_ms":         "ms",
	"server.project_ms":          "ms",
	"server.modes_ms":            "ms",
	"wal.append_ms":              "ms",
	"wal.sync_ms":                "ms",
	"wal.appends_per_push":       "ratio",
	"wal.fsyncs_per_push":        "ratio",
	"core.read_state_ms":         "ms",
	"merge.pair_ms":              "ms",
	"merge.tree_ms":              "ms",
	"trace.overhead_ms":          "ms",
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", names())
		os.Exit(2)
	}
	cfg := runConfig{
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		workDir:   filepath.Join(".bench_build", "run"),
		workerBin: os.Getenv("PARSVD_WORKER"),
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	units := endToEnd
	if cfg.trace {
		units = perLayer
	}
	res := resultJSON{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(units)),
	}
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *workload, name)
			os.Exit(2)
		}
		res.Metrics[name] = metricJSON{Value: v, Unit: unit}
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range out.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}
