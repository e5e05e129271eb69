// Command parsvd-scaling reproduces Figure 1(c) of the PyParSVD paper —
// the weak scaling of the parallelized + randomized SVD with a fixed 1024
// grid points per rank — and doubles as the launcher for real
// multi-process runs.
//
// Transport modes (-transport):
//
//   - chan (default): the historical in-process measurement. Goroutine
//     ranks execute the APMOS decomposition; a Theta-calibrated analytic
//     model extends the series to 16384 ranks. Honest wall clock, but
//     ranks beyond the local core count time-share the CPU.
//
//   - tcp: a launcher mode. For every rank count, a persistent fleet of
//     N parsvd-worker OS processes is started (internal/launch.Session),
//     connected over loopback TCP (the internal/mpi/tcptransport
//     fabric), and fed the workload's snapshot batches over the wire.
//     The reported time is the launcher's wall clock over the push loop;
//     the communication volume is the fleet's summed payload traffic.
//     Each point is verified bit-for-bit against the in-process run of
//     the identical deterministic workload before it is reported, and
//     the command exits nonzero on any failure or mismatch.
//
// Outputs: a CSV per series in -outdir, tables on stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"goparsvd/internal/launch"
	"goparsvd/internal/mpi"
	"goparsvd/internal/scaling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parsvd-scaling: ")

	var (
		transport   = flag.String("transport", "chan", "rank fabric: chan (in-process goroutines) or tcp (one OS process per rank)")
		rowsPerRank = flag.Int("rows-per-rank", 1024, "grid points per rank (paper: 1024)")
		snapshots   = flag.Int("snapshots", 128, "snapshot count for the measured series")
		k           = flag.Int("k", 10, "modes for the SVD")
		r1          = flag.Int("r1", 32, "APMOS gather truncation for the measured series")
		ranksFlag   = flag.String("ranks", "1,2,4,8,16", "comma-separated measured rank counts")
		trials      = flag.Int("trials", 3, "trials per point (minimum kept; chan mode only)")
		modelMax    = flag.Int("model-max", 16384, "largest rank count for the modeled series (chan mode only)")
		outdir      = flag.String("outdir", "out/scaling", "output directory")

		// tcp-mode streaming workload shape.
		initBatch = flag.Int("init-batch", 24, "tcp mode: columns consumed by Initialize")
		batch     = flag.Int("batch", 12, "tcp mode: columns per streaming update")
		ff        = flag.Float64("ff", 0.95, "tcp mode: streaming forget factor")
		lowRank   = flag.Bool("lowrank", false, "tcp mode: use the randomized SVD pipeline")
		seed      = flag.Int64("seed", 7, "tcp mode: randomized-SVD sketch seed")
		workerBin = flag.String("worker", "", "tcp mode: parsvd-worker binary (default: $PARSVD_WORKER, sibling, PATH, then go build)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "tcp mode: per-operation timeout (fleet start, each push, each read)")
	)
	flag.Parse()

	ranks, err := parseRanks(*ranksFlag)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	switch *transport {
	case "chan":
		runChanMode(chanConfig{
			rowsPerRank: *rowsPerRank, snapshots: *snapshots, k: *k, r1: *r1,
			ranks: ranks, trials: *trials, modelMax: *modelMax, outdir: *outdir,
		})
	case "tcp":
		w := scaling.StreamWorkload{
			RowsPerRank: *rowsPerRank,
			Snapshots:   *snapshots,
			InitBatch:   *initBatch,
			Batch:       *batch,
			K:           *k,
			R1:          *r1,
			FF:          *ff,
			LowRank:     *lowRank,
			Seed:        *seed,
		}
		runTCPMode(tcpConfig{
			workload: w, ranks: ranks, workerBin: *workerBin,
			timeout: *timeout, outdir: *outdir,
		})
	default:
		log.Fatalf("unknown -transport %q (want chan or tcp)", *transport)
	}
}

type chanConfig struct {
	rowsPerRank, snapshots, k, r1 int
	ranks                         []int
	trials, modelMax              int
	outdir                        string
}

// runChanMode is the historical Figure 1(c) reproduction: measured
// goroutine ranks plus the Theta-calibrated analytic model.
func runChanMode(cfg chanConfig) {
	mcfg := scaling.MeasuredConfig{
		RowsPerRank: cfg.rowsPerRank,
		Snapshots:   cfg.snapshots,
		K:           cfg.k,
		R1:          cfg.r1,
		Ranks:       cfg.ranks,
		Trials:      cfg.trials,
	}
	log.Printf("measured series: %d rows/rank, %d snapshots, ranks %v", cfg.rowsPerRank, cfg.snapshots, cfg.ranks)
	measured := scaling.RunMeasured(mcfg)
	fmt.Println()
	fmt.Print(scaling.FormatSeries("measured weak scaling (goroutine ranks, this machine)", measured))

	model := scaling.DefaultThetaModel()
	model.RowsPerRank = cfg.rowsPerRank
	model.K = cfg.k
	modeled := model.Series(scaling.PowersOfTwo(cfg.modelMax))
	fmt.Println()
	fmt.Print(scaling.FormatSeries(
		fmt.Sprintf("modeled weak scaling (Theta-like constants, N=%d, r1=%d)", model.Snapshots, model.R1),
		modeled))

	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_measured.csv"), measured); err != nil {
		log.Fatal(err)
	}
	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_model.csv"), modeled); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", cfg.outdir)
}

type tcpConfig struct {
	workload  scaling.StreamWorkload
	ranks     []int
	workerBin string
	timeout   time.Duration
	outdir    string
}

// runTCPMode measures one wire-fed worker fleet per rank count, verifies
// each against the in-process reference, and reports the socket-measured
// scaling series.
func runTCPMode(cfg tcpConfig) {
	if err := cfg.workload.Validate(); err != nil {
		log.Fatal(err)
	}
	log.Printf("tcp series: %d rows/rank, %d snapshots (init %d, batch %d), ranks %v",
		cfg.workload.RowsPerRank, cfg.workload.Snapshots, cfg.workload.InitBatch,
		cfg.workload.Batch, cfg.ranks)

	points := make([]scaling.Point, 0, len(cfg.ranks))
	for _, p := range cfg.ranks {
		log.Printf("starting %d worker process(es)…", p)
		pt, err := tcpPoint(cfg, p)
		if err != nil {
			log.Fatalf("%d ranks: %v", p, err)
		}
		points = append(points, pt)
	}
	scaling.FillEfficiency(points)

	fmt.Println()
	fmt.Print(scaling.FormatSeries("measured weak scaling (TCP worker processes, streaming SVD)", points))
	if err := writeCSV(filepath.Join(cfg.outdir, "fig1c_tcp_measured.csv"), points); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nartifacts written to %s\n", cfg.outdir)
}

// tcpPoint pushes the workload's global batches through a fresh
// ranks-process session and checks the result bit for bit against the
// in-process run. Seconds is the launcher's wall clock over the push
// loop; CommBytes is the fleet's summed payload traffic, read after the
// closing mode gather.
func tcpPoint(cfg tcpConfig, ranks int) (scaling.Point, error) {
	w, o := cfg.workload, cfg.workload.CoreOptions()
	s, err := launch.StartSession(launch.SessionConfig{
		Ranks:     ranks,
		WorkerBin: cfg.workerBin,
		OpTimeout: cfg.timeout,
		Spec: launch.EngineSpec{K: o.K, FF: o.ForgetFactor, R1: o.R1, Method: int(o.Method), LowRank: o.LowRank,
			Oversample: o.RLA.Oversample, PowerIters: o.RLA.PowerIters, Seed: o.RLA.Seed},
	})
	if err != nil {
		return scaling.Point{}, err
	}
	defer s.Close()

	bc := w.BurgersConfig(ranks)
	start := time.Now()
	for lo, hi := 0, w.BatchEnd(0); lo < w.Snapshots; lo, hi = hi, w.BatchEnd(hi) {
		if err := s.Push(bc.Block(0, bc.Nx, lo, hi)); err != nil {
			return scaling.Point{}, err
		}
	}
	elapsed := time.Since(start)

	singular, err := s.Spectrum()
	if err != nil {
		return scaling.Point{}, err
	}
	sha, err := s.ModesSHA()
	if err != nil {
		return scaling.Point{}, err
	}
	if err := verifyInProcess(ranks, w, singular, sha); err != nil {
		return scaling.Point{}, fmt.Errorf("VERIFICATION FAILED: %w", err)
	}
	st := s.Stats()
	log.Printf("%d ranks: verified — singular values and modes match the in-process run bit-for-bit; %d msgs, %d payload bytes",
		ranks, st.Messages, st.Bytes)
	if err := s.Close(); err != nil {
		return scaling.Point{}, err
	}
	return scaling.Point{Ranks: ranks, Seconds: elapsed.Seconds(), CommBytes: st.Bytes}, nil
}

// verifyInProcess replays the workload on the in-process channel fabric
// and demands the wire-fed fleet's exact result: the same singular-value
// bit patterns and the same SHA-256 of the gathered modes.
func verifyInProcess(ranks int, w scaling.StreamWorkload, singular []float64, sha string) error {
	var ref scaling.StreamResult
	if _, err := mpi.Run(ranks, func(c *mpi.Comm) {
		if r := scaling.RunStream(c, w); c.Rank() == 0 {
			ref = r
		}
	}); err != nil {
		return fmt.Errorf("in-process reference run: %w", err)
	}
	if len(singular) != len(ref.Singular) {
		return fmt.Errorf("%d singular values, in-process run has %d", len(singular), len(ref.Singular))
	}
	for i := range singular {
		if math.Float64bits(singular[i]) != math.Float64bits(ref.Singular[i]) {
			return fmt.Errorf("sigma[%d]: tcp %g, in-process %g", i, singular[i], ref.Singular[i])
		}
	}
	if want := launch.HashModes(ref.Modes); sha != want {
		return fmt.Errorf("gathered modes diverge from the in-process run (sha %s vs %s)", sha, want)
	}
	return nil
}

func parseRanks(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid rank count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rank counts in %q", s)
	}
	return out, nil
}

func writeCSV(path string, points []scaling.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "ranks,seconds,efficiency,comm_bytes")
	for _, p := range points {
		fmt.Fprintf(f, "%d,%.6e,%.6f,%d\n", p.Ranks, p.Seconds, p.Efficiency, p.CommBytes)
	}
	return nil
}
