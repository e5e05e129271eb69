package server

import (
	"fmt"
	"net/http"
)

// handleMetrics exposes Prometheus-style plaintext gauges. Everything
// here comes from already-published stats snapshots and queue counters —
// no gather, no engine lock — so scraping stays cheap and contention-free
// under ingest load.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP parsvd_http_requests_total HTTP requests served.\n")
	fmt.Fprintf(w, "# TYPE parsvd_http_requests_total counter\n")
	fmt.Fprintf(w, "parsvd_http_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "# HELP parsvd_models Registered models.\n")
	fmt.Fprintf(w, "# TYPE parsvd_models gauge\n")
	fmt.Fprintf(w, "parsvd_models %d\n", s.reg.count())

	fmt.Fprintf(w, "# HELP parsvd_model_snapshots Snapshot columns ingested per model.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_snapshots counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_updates Engine updates applied per model.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_updates counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_queue_depth Pushes waiting in the ingest queue.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_queue_depth gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_comm_bytes Inter-rank traffic bytes per model.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_comm_bytes counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_pushed_bytes Logical snapshot bytes ingested per model (8*M*B per push, before any sketch compression).\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_pushed_bytes counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wire_bytes Bytes that actually crossed the ingress boundary per model (smaller than pushed_bytes when sketched).\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wire_bytes counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_sketched_pushes Updates that arrived as compressed sketch factor pairs.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_sketched_pushes counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_appends Update records (batches, sketches, merges) appended to the write-ahead log.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_appends counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_fsyncs Fsync calls issued by the write-ahead log.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_fsyncs counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_records Write-ahead log records not yet rotated out by a checkpoint (replay depth).\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_records gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_bytes Write-ahead log bytes not yet rotated out by a checkpoint.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_bytes gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_replayed_records Records re-applied from the write-ahead log at the last boot.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_replayed_records gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_wal_truncated_bytes Torn-tail bytes discarded when the write-ahead log was opened.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_wal_truncated_bytes counter\n")
	fmt.Fprintf(w, "# HELP parsvd_model_recovery_seconds Wall time the last restore of this model took (checkpoint load + replay).\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_recovery_seconds gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_dirty_age_seconds Age of the oldest update not yet covered by a checkpoint (0 when clean).\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_dirty_age_seconds gauge\n")
	fmt.Fprintf(w, "# HELP parsvd_model_shard_info Shard provenance: shard is \"i/n\", \"merged\" or \"whole\"; absorbed counts merged-in shard checkpoints. Value is always 1.\n")
	fmt.Fprintf(w, "# TYPE parsvd_model_shard_info gauge\n")
	for _, m := range s.reg.list() {
		st := m.statsSnapshot()
		fmt.Fprintf(w, "parsvd_model_snapshots{model=%q} %d\n", m.name, st.Snapshots)
		fmt.Fprintf(w, "parsvd_model_updates{model=%q} %d\n", m.name, st.Updates)
		fmt.Fprintf(w, "parsvd_model_queue_depth{model=%q} %d\n", m.name, m.pending.Load())
		fmt.Fprintf(w, "parsvd_model_comm_bytes{model=%q} %d\n", m.name, st.Bytes)
		fmt.Fprintf(w, "parsvd_model_pushed_bytes{model=%q} %d\n", m.name, st.PushedBytes)
		fmt.Fprintf(w, "parsvd_model_wire_bytes{model=%q} %d\n", m.name, st.WireBytes)
		fmt.Fprintf(w, "parsvd_model_sketched_pushes{model=%q} %d\n", m.name, st.SketchedPushes)
		shard, absorbed := shardLabel(st)
		if shard == "" {
			shard = "whole"
		}
		fmt.Fprintf(w, "parsvd_model_shard_info{model=%q,shard=%q,absorbed=\"%d\"} 1\n", m.name, shard, absorbed)
		h := m.health()
		fmt.Fprintf(w, "parsvd_model_recovery_seconds{model=%q} %g\n", m.name, h.RecoverySeconds)
		fmt.Fprintf(w, "parsvd_model_dirty_age_seconds{model=%q} %g\n", m.name, h.DirtyAgeSeconds)
		wlog := m.wlog.Load()
		if wlog == nil {
			continue
		}
		c := wlog.Counters()
		fmt.Fprintf(w, "parsvd_model_wal_appends{model=%q} %d\n", m.name, c.Appends)
		fmt.Fprintf(w, "parsvd_model_wal_fsyncs{model=%q} %d\n", m.name, c.Fsyncs)
		fmt.Fprintf(w, "parsvd_model_wal_records{model=%q} %d\n", m.name, h.WALRecords)
		fmt.Fprintf(w, "parsvd_model_wal_bytes{model=%q} %d\n", m.name, h.WALBytes)
		fmt.Fprintf(w, "parsvd_model_wal_replayed_records{model=%q} %d\n", m.name, c.Replayed)
		fmt.Fprintf(w, "parsvd_model_wal_truncated_bytes{model=%q} %d\n", m.name, c.TruncatedBytes)
	}
}
