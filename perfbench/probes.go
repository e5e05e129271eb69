package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/core"
	"goparsvd/internal/grid"
	"goparsvd/internal/launch"
	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/merge"
	"goparsvd/internal/mpi"
	"goparsvd/internal/stream"
	"goparsvd/internal/tsqr"
	"goparsvd/internal/wal"
	"goparsvd/server"
	"goparsvd/server/client"
)

// Probes: in a traced run the benchmark calls a layer's public
// functions itself, on the workload's own data and shapes, with a span
// around each call. A metric named <span>_ms is the median self time of
// the spans of that name. Every layer is probed on every workload, at
// that workload's shapes, so every metric is a measurement everywhere;
// README.md says on which workloads each layer lies on the timed path.

// probeIters is how many calls each probe times.
const probeIters = 24

// layerMetrics builds the per-layer report: the median self time of
// every span whose name has a <name>_ms metric, the probes' other
// measurements in extra, and the metrics derived from both. A metric
// with neither stays 0.
func layerMetrics(spans []span, extra map[string]float64, m, b, k int) map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for name := range perLayer {
		l[name] = 0
	}
	self := selfMS(spans)
	for name, ms := range self {
		if _, ok := perLayer[name+"_ms"]; ok {
			l[name+"_ms"] = median(ms)
		}
	}
	for name, v := range extra {
		l[name] = v
	}
	deriveStreamRates(l, m, b, k)
	l["launch.overhead_ms"] = median(self["launch.session_push"]) - l["core.parallel_update_ms"]
	l["server.http_overhead_ms"] = median(self["client.push"]) - l["server.engine_apply_ms"]
	return l
}

// probeLayers runs every layer's probe at the workload's shapes and
// stores the measurements that are not span medians in extra. The merge
// probes run on shards, or on 8 shards generated in the workload's
// subspace when shards is nil. With pathTraced set, the workload's own
// traced path already calls the sketch and the HTTP API (serve-mixed),
// so those two are not probed.
func probeLayers(tr *tracer, cfg runConfig, lr lowRank, pool batchPool, k int, shards [][]byte, pathTraced bool, extra map[string]float64) error {
	probeStreamLayers(tr, pool, k)
	if err := probeDistributed(tr, cfg, pool, k, extra); err != nil {
		return err
	}
	body, err := probeServeCodec(tr, pool)
	if err != nil {
		return err
	}
	extra["server.body_bytes_per_push"] = body
	if err := probeEngineApply(tr, pool, k); err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	walDir, err := os.MkdirTemp(cfg.workDir, "walprobe-")
	if err != nil {
		return err
	}
	err = probeWAL(tr, walDir, pool)
	os.RemoveAll(walDir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if shards == nil {
		if shards, _, err = genCheckpoints(rngFor(cfg.seed, streamProbeShards), lr, 8, 64, true); err != nil {
			return err
		}
	}
	if err := probeMerge(tr, shards, k, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	if pathTraced {
		return nil
	}
	if err := probeSketch(tr, pool, k); err != nil {
		return err
	}
	return probeServeHTTP(tr, cfg.workDir, pool, k, extra)
}

// saveSpans writes the run's spans under the work directory.
func saveSpans(cfg runConfig, out *outcome, spans []span, workload string) error {
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed)
	path, err := writeSpans(filepath.Join(cfg.workDir, "trace"), name, spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	out.note("trace: %d spans written to %s", len(spans), path)
	return nil
}

// probeStreamLayers replays streaming updates at the pool's shape twice
// over: once through the update's own layers (linalg.QRWith on
// [UΣ|A], linalg.SVDWith on R, mat.MulInto for the modes) and once
// through stream.SVD.IncorporateData. deriveStreamRates turns the
// medians into flop rates and the QR share.
func probeStreamLayers(tr *tracer, pool batchPool, k int) {
	s := stream.New(stream.Options{K: k, FF: 1})
	s.Initialize(pool.data[0])
	var ws mat.Workspace
	m, b := pool.data[0].Dims()
	for i := 1; i <= probeIters; i++ {
		a := pool.data[i%len(pool.data)]
		u, sv := s.Modes(), s.SingularValues()
		k0 := u.Cols()
		root := tr.begin("probe.update_replay")
		scaled := ws.GetUninit(m, k0)
		mat.MulDiagScaledInto(scaled, 1, u, sv)
		concat := ws.GetUninit(m, k0+b)
		mat.HStackInto(concat, scaled, a)
		ws.Put(scaled)
		sp := tr.begin("linalg.qr")
		q, r := linalg.QRWith(&ws, concat)
		tr.end(sp)
		sp = tr.begin("linalg.svd")
		ut, d, v := linalg.SVDWith(&ws, r)
		tr.end(sp)
		kk := min(k, len(d))
		usub := ws.GetUninit(ut.Rows(), kk)
		ut.SliceColsInto(usub, 0, kk)
		next := ws.GetUninit(m, kk)
		sp = tr.begin("mat.gemm")
		mat.MulInto(next, q, usub)
		tr.end(sp)
		for _, x := range []*mat.Dense{concat, q, r, ut, v, usub, next} {
			ws.Put(x)
		}
		ws.PutFloats(d)
		tr.end(root)

		sp = tr.begin("stream.update")
		s.IncorporateData(a)
		tr.end(sp)
	}
}

// deriveStreamRates adds the flop rates and the QR share of the update,
// with flops computed from the update's shape: Householder QR of an
// M×n matrix with n = K+B plus forming its thin Q is 4Mn² − 4n³/3, and
// the mode product Q·Ũ_K is 2·M·n·K.
func deriveStreamRates(l map[string]float64, m, b, k int) {
	n, mm := float64(k+b), float64(m)
	if l["linalg.qr_ms"] > 0 {
		l["linalg.qr_gflops"] = (4*mm*n*n - 4*n*n*n/3) / (l["linalg.qr_ms"] * 1e6)
	}
	if l["mat.gemm_ms"] > 0 {
		l["mat.gemm_gflops"] = 2 * mm * n * float64(k) / (l["mat.gemm_ms"] * 1e6)
	}
	if l["stream.update_ms"] > 0 {
		l["stream.qr_share"] = l["linalg.qr_ms"] / l["stream.update_ms"]
	}
}

// probeDistributed times the layers under the distributed backend: the
// Parallel engine's update and its TSQR over a 2-rank in-process
// transport (with the transport's message counts), the session block
// codec at the batch shape, and a fleet start, its streaming pushes and
// the worker's peak RSS. It stores the non-span metrics in l.
func probeDistributed(tr *tracer, cfg runConfig, pool batchPool, k int, l map[string]float64) error {
	m, _ := pool.data[0].Dims()
	parts := grid.Partition(m, 2)
	t := mpi.NewChanTransport(2)
	defer t.Close()
	var traffic mpi.Stats
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("rank %d: %v", rank, r)
					t.Abort()
				}
			}()
			rtr := tr
			if rank != 0 {
				rtr = nil
			}
			c := mpi.NewComm(t, rank)
			rows := func(a *mat.Dense) *mat.Dense { return a.SliceRows(parts[rank].Start, parts[rank].End) }
			p := core.NewParallel(c, core.Options{K: k, ForgetFactor: 1})
			p.Initialize(rows(pool.data[0]))
			c.Barrier()
			before := t.Stats()
			for i := 1; i <= probeIters; i++ {
				c.Barrier()
				sp := rtr.begin("core.parallel_update")
				p.IncorporateData(rows(pool.data[i%len(pool.data)]))
				rtr.end(sp)
			}
			c.Barrier()
			if rank == 0 {
				after := t.Stats()
				traffic = mpi.Stats{Messages: after.Messages - before.Messages, Bytes: after.Bytes - before.Bytes}
			}
			var ws mat.Workspace
			for i := 1; i <= probeIters; i++ {
				a := rows(pool.data[i%len(pool.data)])
				u, sv := p.Modes(), p.SingularValues()
				scaled := ws.GetUninit(u.Rows(), u.Cols())
				mat.MulDiagScaledInto(scaled, 1, u, sv)
				ll := ws.GetUninit(u.Rows(), u.Cols()+a.Cols())
				mat.HStackInto(ll, scaled, a)
				c.Barrier()
				sp := rtr.begin("tsqr.gather_qr")
				q, r := tsqr.GatherQRWith(&ws, c, ll)
				rtr.end(sp)
				for _, x := range []*mat.Dense{scaled, ll, q, r} {
					if x != nil {
						ws.Put(x)
					}
				}
			}
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("parallel probe: %w", err)
		}
	}
	l["mpi.msgs_per_push"] = float64(traffic.Messages) / probeIters
	l["mpi.bytes_per_push"] = float64(traffic.Bytes) / probeIters

	for i := 0; i < probeIters; i++ {
		a := pool.data[i%len(pool.data)]
		sp := tr.begin("launch.encode_block")
		body := launch.EncodeBlock(a)
		tr.end(sp)
		sp = tr.begin("launch.decode_block")
		_, err := launch.DecodeBlock(body)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("decode block probe: %w", err)
		}
	}

	if err := checkWorker(cfg.workerBin); err != nil {
		return err
	}
	sp := tr.begin("launch.fleet_start")
	sess, err := launch.StartSession(launch.SessionConfig{Ranks: 2, WorkerBin: cfg.workerBin,
		Spec: launch.EngineSpec{K: k, FF: 1}, Stderr: os.Stderr})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	defer sess.Close()
	// The first push initializes the fleet's engines; the rest are the
	// streaming updates launch.overhead_ms is taken from.
	if err := sess.Push(pool.data[0]); err != nil {
		return fmt.Errorf("fleet probe push: %w", err)
	}
	for i := 1; i <= probeIters; i++ {
		sp := tr.begin("launch.session_push")
		err := sess.Push(pool.data[i%len(pool.data)])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("fleet probe push: %w", err)
		}
	}
	for _, pid := range sess.WorkerPIDs() {
		rss, err := peakRSSMB(pid)
		if err != nil {
			return fmt.Errorf("worker RSS: %w", err)
		}
		l["launch.worker_peak_rss_mb"] = max(l["launch.worker_peak_rss_mb"], rss)
	}
	return sess.Close()
}

// probeServeCodec times the JSON body codec of a raw push at the batch
// shape: the client's encode and the server's decode into a matrix. It
// returns the mean body size.
func probeServeCodec(tr *tracer, pool batchPool) (float64, error) {
	var total int
	for i := 0; i < probeIters; i++ {
		a := pool.data[i%len(pool.data)]
		sp := tr.begin("client.json_encode")
		body, err := json.Marshal(server.NewMatrixJSON(a))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		total += len(body)
		sp = tr.begin("server.json_decode")
		var mj server.MatrixJSON
		err = json.Unmarshal(body, &mj)
		if err == nil {
			_, err = mj.Matrix()
		}
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("decode probe: %w", err)
		}
	}
	return float64(total) / probeIters, nil
}

// probeEngineApply times facade Push at the serve shape: the engine
// work an HTTP push waits for.
func probeEngineApply(tr *tracer, pool batchPool, k int) error {
	svd, err := parsvd.New(parsvd.WithModes(k), parsvd.WithForgetFactor(1))
	if err != nil {
		return err
	}
	defer svd.Close()
	if err := svd.Push(pool.data[0]); err != nil {
		return err
	}
	for i := 1; i <= probeIters; i++ {
		sp := tr.begin("server.engine_apply")
		err := svd.Push(pool.data[i%len(pool.data)])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeWAL times the write-ahead log at the raw push record size: an
// append, then the fsync that FsyncAlways issues before the ack.
func probeWAL(tr *tracer, dir string, pool batchPool) error {
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	for i := 1; i <= probeIters; i++ {
		rec := launch.EncodeBlock(pool.data[i%len(pool.data)])
		sp := tr.begin("wal.append")
		err := log.Append(uint64(i), rec)
		tr.end(sp)
		if err != nil {
			log.Close()
			return err
		}
		sp = tr.begin("wal.sync")
		err = log.Sync()
		tr.end(sp)
		if err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// probeMerge times the reduce's layers on the workload's checkpoints:
// core.ReadState of one shard, one merge.Merger.Pair, and a whole
// merge.Tree over every shard.
func probeMerge(tr *tracer, blobs [][]byte, k, workers int) error {
	parts := make([]*merge.Partial, len(blobs))
	for i := 0; i < probeIters; i++ {
		j := i % len(blobs)
		sp := tr.begin("core.read_state")
		st, err := core.ReadState(bytes.NewReader(blobs[j]))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("read state probe: %w", err)
		}
		parts[j] = &merge.Partial{U: st.Modes, S: st.Singular, Iterations: st.Iterations, Snapshots: st.Snapshots}
	}
	var mg merge.Merger
	var dst merge.Partial
	for i := 0; i < probeIters; i++ {
		sp := tr.begin("merge.pair")
		err := mg.Pair(&dst, parts[i%len(parts)], parts[(i+1)%len(parts)], k)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("pair probe: %w", err)
		}
	}
	mg.Release(&dst)
	for i := 0; i < probeIters/4; i++ {
		sp := tr.begin("merge.tree")
		_, err := merge.Tree(parts, merge.TreeOptions{K: k, Workers: workers})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("tree probe: %w", err)
		}
	}
	return nil
}

// probeSketch times parsvd.Sketch at the serve workload's sketched
// shape: four batches side by side, compressed to L = 2K columns.
func probeSketch(tr *tracer, pool batchPool, k int) error {
	n := len(pool.data)
	for i := 0; i < probeIters; i++ {
		wide := parsvd.HStack(pool.data[i%n], pool.data[(i+1)%n], pool.data[(i+2)%n], pool.data[(i+3)%n])
		sp := tr.begin("rla.sketch")
		_, _, err := parsvd.Sketch(wide, parsvd.SketchConfig{MaxRank: 2 * k})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("sketch probe: %w", err)
		}
	}
	return nil
}

// probeServeHTTP times the serve tier at the workload's shapes: an
// in-process server with the WAL at FsyncAlways, one client pushing the
// workload's batches and reading the spectrum, a projection of each
// batch and, every fourth push, the modes. It stores the server's
// per-write counters and the sampled queue depth in l.
func probeServeHTTP(tr *tracer, workDir string, pool batchPool, k int, l map[string]float64) error {
	inst, err := startServe(workDir)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	err = serveProbeCalls(tr, inst, pool, k, l)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return err
}

func serveProbeCalls(tr *tracer, inst *serveInstance, pool batchPool, k int, l map[string]float64) error {
	cl := client.New(inst.base)
	cl.HTTPClient = inst.hc
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := cl.CreateModel(ctx, server.ModelSpec{Name: modelName, Modes: k, ForgetFactor: 1}); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if _, err := cl.Push(ctx, modelName, pool.data[0]); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	before, err := inst.metrics()
	if err != nil {
		return err
	}
	var depth []float64
	for i := 1; i <= probeIters; i++ {
		a := pool.data[i%len(pool.data)]
		sp := tr.begin("client.push")
		_, err := cl.Push(ctx, modelName, a)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("server.spectrum")
			_, err = cl.Spectrum(ctx, modelName)
			tr.end(sp)
		}
		if err == nil {
			sp = tr.begin("server.project")
			_, err = cl.Project(ctx, modelName, a)
			tr.end(sp)
		}
		if err == nil && i%4 == 0 {
			sp = tr.begin("server.modes")
			_, _, err = cl.Modes(ctx, modelName)
			tr.end(sp)
		}
		var m map[string]float64
		if err == nil {
			m, err = inst.metrics()
		}
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		depth = append(depth, m["parsvd_model_queue_depth"])
	}
	after, err := inst.metrics()
	if err != nil {
		return err
	}
	serveCounters(l, before, after, probeIters)
	l["server.queue_depth_mean"] = mean(depth)
	return nil
}

// checkWorker reports whether bin names a prebuilt parsvd-worker.
func checkWorker(bin string) error {
	if bin == "" {
		return fmt.Errorf("PARSVD_WORKER must name a prebuilt parsvd-worker")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("worker binary: %w", err)
	}
	return nil
}
