package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	parsvd "goparsvd"
	"goparsvd/server"
	"goparsvd/server/client"
)

// serveShape sizes the serve-mixed workload.
type serveShape struct {
	M, B, K int
	// SketchB is the width of the batches pushed as sketches; they are
	// compressed to L = 2K columns.
	SketchB     int
	Rank        int
	Decades     float64
	Pool        int
	SketchPool  int
	ProjectCols int
	Clients     int
	// Mix is one client's cycle of operations: P raw push, S sketched
	// push, s spectrum, p project, m modes, c merge of a checkpoint
	// (the reduce: POST /merge, as a coordinator installs a shard). Client
	// c starts c/Clients of the way into the cycle. The order does not
	// depend on the seed, so seeds vary the data and not the
	// interleaving of the clients.
	Mix       string
	Setups    int
	Tails     [3]float64
	MinDigits float64
	// OpTimeout bounds one HTTP operation; a timed-out call fails.
	OpTimeout time.Duration
	// Warmup is the untimed run of the mix before the timed phase.
	Warmup time.Duration
}

var serveMixedShape = serveShape{
	M: 2048, B: 16, K: 10, SketchB: 64, Rank: 10, Decades: 5,
	Pool: 32, SketchPool: 8, ProjectCols: 8, Clients: 2,
	Mix:    "PPsPpPScPcPmPpPSPsPcpP",
	Setups: 5, Tails: [3]float64{95, 90, 75}, MinDigits: 8,
	OpTimeout: 20 * time.Second, Warmup: 2 * time.Second,
}

const modelName = "bench"

// serveInstance is one in-process server on a loopback listener.
type serveInstance struct {
	srv    *server.Server
	hs     *http.Server
	dir    string
	base   string
	hc     *http.Client
	served chan error
}

func startServe(workDir string) (*serveInstance, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		CheckpointDir: dir,
		Fsync:         server.FsyncAlways,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	si := &serveInstance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir,
		base: "http://" + ln.Addr().String(), served: make(chan error, 1),
		// Room for every client and the /metrics sampler to keep a
		// connection alive.
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	go func() { si.served <- si.hs.Serve(ln) }()
	return si, nil
}

// close drains HTTP, closes the server (final checkpoint) and removes
// its directory.
func (si *serveInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	si.hc.CloseIdleConnections()
	err := si.hs.Shutdown(ctx)
	if serr := <-si.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := si.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(si.dir); err == nil {
		err = rerr
	}
	return err
}

// ackedPush is one acknowledged write: a raw push, a sketched push or
// a merge ('P', 'S' or 'c') of the pool item idx.
type ackedPush struct {
	kind byte
	idx  int
}

type serveRun struct {
	sh       serveShape
	pool     batchPool // raw batches, M×B
	wide     batchPool // sketched batches, M×SketchB
	ckpts    [][]byte  // checkpoints merged by the reduce
	ckptG    []*parsvd.Matrix
	project  []*parsvd.Matrix
	inst     *serveInstance
	cl       *client.Client
	mixes    [][]byte
	mu       sync.Mutex
	acked    []ackedPush
	rejected int
	counters []int // per-client position in its batch sequence
}

func runServe(cfg runConfig, sh serveShape) (*outcome, error) {
	lr := newLowRank(rngFor(cfg.seed, streamBasis), sh.M, sh.Rank, sh.Decades)
	st := &serveRun{
		sh:       sh,
		pool:     lr.pool(rngFor(cfg.seed, streamBatches), sh.Pool, sh.B),
		wide:     lr.pool(rngFor(cfg.seed, streamWide), sh.SketchPool, sh.SketchB),
		counters: make([]int, sh.Clients),
	}
	probeRng := rngFor(cfg.seed, streamProbe)
	for i := 0; i < 4; i++ {
		st.project = append(st.project, lr.expand(lr.coeffs(probeRng, sh.ProjectCols)))
	}
	var err error
	st.ckpts, st.ckptG, err = genCheckpoints(rngFor(cfg.seed, streamShards), lr, 4, sh.B, false)
	if err != nil {
		return nil, err
	}
	for c := 0; c < sh.Clients; c++ {
		off := c * len(sh.Mix) / sh.Clients
		st.mixes = append(st.mixes, []byte(sh.Mix[off:]+sh.Mix[:off]))
	}

	// Set-up: server.New with the WAL directory, the listener,
	// CreateModel and the first push, each over HTTP. Repeated, and the
	// last server kept.
	var setups []float64
	for i := 0; i < sh.Setups; i++ {
		t0 := time.Now()
		inst, err := startServe(cfg.workDir)
		if err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		cl := client.New(inst.base)
		cl.HTTPClient = inst.hc
		ctx, cancel := context.WithTimeout(context.Background(), sh.OpTimeout)
		_, err = cl.CreateModel(ctx, server.ModelSpec{Name: modelName, Modes: sh.K, ForgetFactor: 1})
		if err == nil {
			_, err = cl.Push(ctx, modelName, st.pool.data[0])
		}
		cancel()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if st.inst != nil {
			if err := st.inst.close(); err != nil {
				return nil, fmt.Errorf("closing set-up server: %w", err)
			}
		}
		st.inst, st.cl = inst, cl
	}
	closed := false
	defer func() {
		if !closed {
			st.inst.close()
		}
	}()
	st.acked = append(st.acked, ackedPush{kind: 'P'})
	// Untimed warm-up: the same mix, until the heap and the connection
	// pool reach their steady size.
	st.phase(sh.Warmup, nil, nil)

	out := &outcome{}
	var ph *opStats
	if cfg.trace {
		plain := st.phase(cfg.dur/2, nil, nil)
		before, err := st.inst.metrics()
		if err != nil {
			return nil, err
		}
		pushedBefore, writtenBefore := st.writes()
		var depth []float64
		ts := newTraceSet()
		ph = st.phase(cfg.dur/2, ts, &depth)
		after, err := st.inst.metrics()
		if err != nil {
			return nil, err
		}
		pushed, written := st.writes()

		// The mix itself traces the sketch and the HTTP calls.
		extra := map[string]float64{}
		if err := probeLayers(ts.fork(), cfg, lr, st.pool, sh.K, nil, true, extra); err != nil {
			return nil, err
		}
		serveCounters(extra, before, after, float64(written-writtenBefore))
		extra["server.queue_depth_mean"] = mean(depth)
		extra["server.rejected"] = float64(st.rejected)
		wire := after["parsvd_model_wire_bytes"] - before["parsvd_model_wire_bytes"]
		extra["parsvd.wire_bytes_per_push"] = wire / float64(pushed-pushedBefore)
		extra["rla.compression"] = (after["parsvd_model_pushed_bytes"] - before["parsvd_model_pushed_bytes"]) / wire
		spans := ts.spans()
		l := layerMetrics(spans, extra, sh.M, sh.B, sh.K)
		l["parsvd.push_ms"] = l["server.engine_apply_ms"]
		l["trace.overhead_ms"] = median(ph.push.ms) - median(plain.push.ms)
		out.metrics = l
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		if err := saveSpans(cfg, out, spans, "serve-mixed"); err != nil {
			return nil, err
		}
	} else {
		ph = st.phase(cfg.dur, nil, nil)
	}
	out.attempted, out.failed = ph.attempted, ph.failed

	ctx, cancel := context.WithTimeout(context.Background(), sh.OpTimeout)
	sp, err := st.cl.Spectrum(ctx, modelName)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("final spectrum: %w", err)
	}
	closed = true
	if err := st.inst.close(); err != nil {
		return nil, fmt.Errorf("closing server: %w", err)
	}
	digits, err := st.check(out, sp)
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

// writes counts the acked pushes (raw and sketched) and all acked
// writes (pushes and merges).
func (st *serveRun) writes() (pushes, all int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, w := range st.acked {
		if w.kind != 'c' {
			pushes++
		}
	}
	return pushes, len(st.acked)
}

// phase runs the client goroutines' closed loops for d. With a trace
// set it records spans and samples the queue depth from /metrics into
// depth.
func (st *serveRun) phase(d time.Duration, ts *traceSet, depth *[]float64) *opStats {
	ph := newOpStats(st.sh.Tails)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < st.sh.Clients; c++ {
		wg.Add(1)
		go func(c int, tr *tracer) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				st.op(c, st.mixes[c][i%len(st.mixes[c])], ph, tr)
			}
		}(c, ts.fork())
	}
	if depth != nil {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if m, err := st.inst.metrics(); err == nil {
						*depth = append(*depth, m["parsvd_model_queue_depth"])
					}
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-sampled
	} else {
		wg.Wait()
	}
	ph.elapsed = time.Since(start)
	return ph
}

// op runs one operation of client c.
func (st *serveRun) op(c int, kind byte, ph *opStats, tr *tracer) {
	ctx, cancel := context.WithTimeout(context.Background(), st.sh.OpTimeout)
	defer cancel()
	n := st.counters[c]
	st.counters[c]++
	var err error
	t0 := time.Now()
	switch kind {
	case 'P':
		idx := (n*st.sh.Clients + c) % st.sh.Pool
		sp := tr.begin("client.push")
		_, err = st.cl.Push(ctx, modelName, st.pool.data[idx])
		tr.end(sp)
		ph.record(&ph.push, time.Since(t0), err, st.sh.B)
		st.ack(ackedPush{kind: kind, idx: idx}, err)
	case 'S':
		idx := (n*st.sh.Clients + c) % st.sh.SketchPool
		root := tr.begin("client.push_sketched")
		sp := tr.begin("rla.sketch")
		var q, s *parsvd.Matrix
		q, s, err = parsvd.Sketch(st.wide.data[idx], parsvd.SketchConfig{MaxRank: 2 * st.sh.K})
		tr.end(sp)
		if err == nil {
			_, err = st.cl.PushSketched(ctx, modelName, q, s)
		}
		tr.end(root)
		ph.record(&ph.push, time.Since(t0), err, st.sh.SketchB)
		st.ack(ackedPush{kind: kind, idx: idx}, err)
	case 's':
		sp := tr.begin("server.spectrum")
		_, err = st.cl.Spectrum(ctx, modelName)
		tr.end(sp)
		ph.record(&ph.read, time.Since(t0), err, 0)
	case 'p':
		sp := tr.begin("server.project")
		_, err = st.cl.Project(ctx, modelName, st.project[n%len(st.project)])
		tr.end(sp)
		ph.record(&ph.read, time.Since(t0), err, 0)
	case 'm':
		sp := tr.begin("server.modes")
		_, _, err = st.cl.Modes(ctx, modelName)
		tr.end(sp)
		ph.record(&ph.read, time.Since(t0), err, 0)
	case 'c':
		idx := (n*st.sh.Clients + c) % len(st.ckpts)
		sp := tr.begin("client.merge")
		_, err = st.cl.Merge(ctx, modelName, bytes.NewReader(st.ckpts[idx]))
		tr.end(sp)
		ph.record(&ph.reduce, time.Since(t0), err, st.sh.B)
		st.ack(ackedPush{kind: kind, idx: idx}, err)
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
		st.mu.Lock()
		st.rejected++
		st.mu.Unlock()
	}
}

func (st *serveRun) ack(p ackedPush, err error) {
	if err != nil {
		return
	}
	st.mu.Lock()
	st.acked = append(st.acked, p)
	st.mu.Unlock()
}

// metrics reads the benchmark model's series from /metrics.
func (si *serveInstance) metrics() (map[string]float64, error) {
	resp, err := si.hc.Get(si.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body, modelName)
}

// parseMetrics extracts the samples labelled model="<model>" from a
// Prometheus text exposition, keyed by metric name.
func parseMetrics(r io.Reader, model string) (map[string]float64, error) {
	label := `{model="` + model + `"}`
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, label)
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// serveCounters stores the serve tier's per-write counters, from two
// /metrics readings around writes acked writes (pushes and merges; each
// is one update, one WAL append and, at FsyncAlways, one fsync).
func serveCounters(l, before, after map[string]float64, writes float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	l["server.updates_per_push"] = delta("parsvd_model_updates") / writes
	l["wal.appends_per_push"] = delta("parsvd_model_wal_appends") / writes
	l["wal.fsyncs_per_push"] = delta("parsvd_model_wal_fsyncs") / writes
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// check compares the served spectrum with a facade fit of the acked
// writes (raw batches for sketched pushes: the data is rank Rank ≤ L,
// so the sketch is exact to roundoff; SVD.Merge for merges) and with
// the direct reference.
func (st *serveRun) check(out *outcome, sp server.SpectrumResponse) (float64, error) {
	svd, err := parsvd.New(parsvd.WithModes(st.sh.K), parsvd.WithForgetFactor(1))
	if err != nil {
		return 0, err
	}
	defer svd.Close()
	var gs []*parsvd.Matrix
	snapshots := 0
	for _, p := range st.acked {
		if p.kind == 'c' {
			if err := svd.Merge(bytes.NewReader(st.ckpts[p.idx])); err != nil {
				return 0, fmt.Errorf("facade reference merge: %w", err)
			}
			gs = append(gs, st.ckptG[p.idx])
			snapshots += st.sh.B
			continue
		}
		pool := st.pool
		if p.kind == 'S' {
			pool = st.wide
		}
		if err := svd.Push(pool.data[p.idx]); err != nil {
			return 0, fmt.Errorf("facade reference push: %w", err)
		}
		gs = append(gs, pool.g[p.idx])
		snapshots += pool.data[p.idx].Cols()
	}
	res, err := svd.Result()
	if err != nil {
		return 0, err
	}
	ref, err := referenceSpectrum(gs, st.sh.K)
	if err != nil {
		return 0, fmt.Errorf("reference spectrum: %w", err)
	}
	facade := spectrumDigits(sp.Singular, res.Singular)
	digits := spectrumDigits(sp.Singular, ref)
	out.check(sp.Snapshots == snapshots, "server holds %d snapshots, %d acked", sp.Snapshots, snapshots)
	out.check(facade >= st.sh.MinDigits, "served spectrum agrees with the facade fit of the acked batches to %.2f digits, need %g", facade, st.sh.MinDigits)
	out.check(digits >= st.sh.MinDigits, "served spectrum agrees with the direct reference to %.2f digits, need %g", digits, st.sh.MinDigits)
	out.note("check: %d writes acked, %d rejected; digits vs facade fit %.3f, vs direct reference %.3f (need %g)",
		len(st.acked), st.rejected, facade, digits, st.sh.MinDigits)
	return digits, nil
}
