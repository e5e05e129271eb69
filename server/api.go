package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	parsvd "goparsvd"
)

// MatrixJSON is the wire form of a dense matrix: row-major data with
// explicit dims, so a payload can be validated before it touches the
// engine. Columns are snapshots, rows are degrees of freedom — the same
// orientation as everywhere in parsvd.
type MatrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// NewMatrixJSON wraps a matrix for encoding. The Data slice aliases the
// matrix (no copy); encode it promptly and do not mutate either side.
func NewMatrixJSON(m *parsvd.Matrix) MatrixJSON {
	return MatrixJSON{Rows: m.Rows(), Cols: m.Cols(), Data: m.RawData()}
}

// Matrix validates the payload and adopts it as a parsvd.Matrix.
func (mj MatrixJSON) Matrix() (*parsvd.Matrix, error) {
	if mj.Rows < 1 || mj.Cols < 1 {
		return nil, fmt.Errorf("server: matrix dims %dx%d: both must be >= 1", mj.Rows, mj.Cols)
	}
	m, err := parsvd.NewMatrixFromData(mj.Rows, mj.Cols, mj.Data)
	if err != nil {
		return nil, fmt.Errorf("server: %d data values for a %dx%d matrix", len(mj.Data), mj.Rows, mj.Cols)
	}
	return m, nil
}

// StatsJSON is the wire form of parsvd.Stats.
type StatsJSON struct {
	Backend   string `json:"backend"`
	K         int    `json:"k"`
	Ranks     int    `json:"ranks"`
	Rows      int    `json:"rows"`
	Snapshots int    `json:"snapshots"`
	Updates   int64  `json:"updates"`
	Messages  int64  `json:"messages"`
	Bytes     int64  `json:"bytes"`
	// PushedBytes is the logical snapshot volume ingested (8·M·B per
	// push, whatever the transport); WireBytes is what actually crossed
	// the ingress boundary — smaller when sketched pushes compressed it.
	// SketchedPushes counts the updates that arrived as factor pairs.
	PushedBytes    int64 `json:"pushed_bytes,omitempty"`
	WireBytes      int64 `json:"wire_bytes,omitempty"`
	SketchedPushes int64 `json:"sketched_pushes,omitempty"`
	// Shard is the model's shard provenance mark ("2/6" for shard 2 of
	// 6, "" for whole-stream models); Absorbed counts the shard
	// checkpoints merged into it. Together they let a coordinator — or
	// an operator reading listings — see which piece of a partitioned
	// stream each model holds.
	Shard    string `json:"shard,omitempty"`
	Absorbed int    `json:"absorbed,omitempty"`
}

func statsJSON(st parsvd.Stats) StatsJSON {
	return StatsJSON{
		Backend:        st.Backend.String(),
		K:              st.K,
		Ranks:          st.Ranks,
		Rows:           st.Rows,
		Snapshots:      st.Snapshots,
		Updates:        st.Updates,
		Messages:       st.Messages,
		Bytes:          st.Bytes,
		PushedBytes:    st.PushedBytes,
		WireBytes:      st.WireBytes,
		SketchedPushes: st.SketchedPushes,
		Shard:          st.Shard.String(),
		Absorbed:       st.Absorbed,
	}
}

// ModelInfo is the API representation of a registered model.
type ModelInfo struct {
	Spec    ModelSpec `json:"spec"`
	Stats   StatsJSON `json:"stats"`
	Version uint64    `json:"version"`
	// QueueDepth is the number of pushes waiting in the ingest queue.
	QueueDepth int `json:"queue_depth"`
	// IngestErr is the last server-side ingest fault (a failed engine,
	// WAL append or view publish), "" when healthy. A refused update
	// (a 4xx) leaves the model healthy and is not recorded here.
	IngestErr string `json:"ingest_error,omitempty"`
}

// PushAck confirms an applied push: the model state it is part of.
type PushAck struct {
	Snapshots int    `json:"snapshots"`
	Version   uint64 `json:"version"`
}

// SketchPushJSON is the wire form of a sketched push: the compressed
// (Q, S) factor pair parsvd.Sketch produces from an M×B batch, carrying
// L·(M+B) values instead of M·B. The model's engine applies the pair
// directly (or forwards it to a distributed fleet), so the ingress
// payload — and the WAL record — stay compressed.
type SketchPushJSON struct {
	Q MatrixJSON `json:"q"`
	S MatrixJSON `json:"s"`
}

// MergeRequest asks a model to absorb another decomposition through the
// pairwise SVD merge. Exactly one source must be set: Model names
// another model on this server (its current published view is
// snapshotted into a checkpoint and absorbed), Checkpoint carries raw
// goparsvd checkpoint bytes (base64 in JSON) — e.g. a shard-local fit
// uploaded from another machine.
type MergeRequest struct {
	Model      string `json:"model,omitempty"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// MergeAck confirms an applied merge: the target model's state after
// absorbing the source, including the accumulated truncation bound.
type MergeAck struct {
	Snapshots  int     `json:"snapshots"`
	Version    uint64  `json:"version"`
	MergeBound float64 `json:"merge_bound"`
}

// SpectrumResponse carries the singular values of the current View. For
// distributed models ModesSHA256 additionally fingerprints the gathered
// mode matrix (dims plus row-major IEEE-754 bits), so clients can verify
// a served model bit-for-bit against a reference run without shipping
// the matrix.
type SpectrumResponse struct {
	Singular    []float64 `json:"singular"`
	Version     uint64    `json:"version"`
	Snapshots   int       `json:"snapshots"`
	ModesSHA256 string    `json:"modes_sha256,omitempty"`
}

// ModesResponse carries the M×K mode matrix of the current View.
type ModesResponse struct {
	Modes   MatrixJSON `json:"modes"`
	Version uint64     `json:"version"`
}

// MatrixResponse carries a computed matrix (projection coefficients,
// reconstructed snapshots) plus the View version it was computed against.
type MatrixResponse struct {
	Matrix  MatrixJSON `json:"matrix"`
	Version uint64     `json:"version"`
}

// HealthResponse is the /healthz body. Beyond liveness it reports the
// per-model durability picture, so operators can see at a glance how much
// acked data is at risk (dirty age under checkpoint-only persistence, WAL
// depth under lazy fsync policies) and what the last boot's recovery cost.
type HealthResponse struct {
	Status string        `json:"status"`
	Models int           `json:"models"`
	Health []ModelHealth `json:"health,omitempty"`
}

// ModelHealth is one model's durability snapshot.
type ModelHealth struct {
	Name string `json:"name"`
	// Dirty reports updates applied since the last checkpoint;
	// DirtyAgeSeconds is how long ago the first of them landed — the age
	// of the data-at-risk window for checkpoint-only deployments.
	Dirty           bool    `json:"dirty"`
	DirtyAgeSeconds float64 `json:"dirty_age_seconds,omitempty"`
	// WAL reports whether the model has a write-ahead log; WALRecords and
	// WALBytes are its depth since the last rotation — the replay work a
	// crash right now would incur.
	WAL        bool  `json:"wal"`
	WALRecords int64 `json:"wal_records,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	// ReplayedOnBoot and RecoverySeconds describe the last restore: how
	// many WAL records were re-applied on top of the checkpoint, and how
	// long the whole recovery took.
	ReplayedOnBoot  uint64  `json:"replayed_on_boot,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// Shard is the model's shard provenance mark ("2/6", or "merged"
	// once it has absorbed other shards, "" for a plain whole-stream
	// model); Absorbed counts the merged-in shard checkpoints.
	Shard    string `json:"shard,omitempty"`
	Absorbed int    `json:"absorbed,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/models", s.handleCreate)
	s.mux.HandleFunc("GET /v1/models", s.handleList)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/models/{name}/push", s.handlePush)
	s.mux.HandleFunc("POST /v1/models/{name}/push-sketch", s.handlePushSketch)
	s.mux.HandleFunc("POST /v1/models/{name}/merge", s.handleMerge)
	s.mux.HandleFunc("GET /v1/models/{name}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/models/{name}/spectrum", s.handleSpectrum)
	s.mux.HandleFunc("GET /v1/models/{name}/modes", s.handleModes)
	s.mux.HandleFunc("GET /v1/models/{name}/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/models/{name}/reconstruct", s.handleReconstruct)
	s.mux.HandleFunc("POST /v1/models/{name}/project", s.handleProject)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		// ingest sets a backlog-derived Retry-After before calling
		// here; this fixed hint only covers 429s raised with no model
		// in hand.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: errorMessage(err)})
}

// ingest queues u on the model and waits for the ingest loop's verdict,
// returning the View the update published. On failure it writes the
// error response itself: a full queue is a 429 whose Retry-After is
// derived from the live backlog (queue occupancy over the coalesce width
// — how many micro-batches must drain before room is guaranteed), and a
// client that goes away while waiting gets a clean 499 (never a backend
// abort string); its update may still be applied.
func ingest(w http.ResponseWriter, r *http.Request, m *model, u update) (*View, bool) {
	req := &pushReq{update: u, errc: make(chan error, 1)}
	if err := m.enqueue(req); err != nil {
		if errors.Is(err, ErrBacklogFull) {
			w.Header().Set("Retry-After", strconv.Itoa(m.retryAfterSeconds()))
		}
		writeError(w, err)
		return nil, false
	}
	select {
	case err := <-req.errc:
		if err != nil {
			writeError(w, err)
			return nil, false
		}
		return req.view, true
	case <-r.Context().Done():
		writeError(w, r.Context().Err())
		return nil, false
	}
}

// decodeJSON reads one JSON value, mapping an oversized body to 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("server: request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "server: invalid JSON: " + err.Error()})
		return false
	}
	return true
}

// lookup resolves the {name} path segment; a miss writes the 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*model, bool) {
	m, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return nil, false
	}
	return m, true
}

// viewOf returns the model's current View; absence (no data pushed yet)
// writes the 409.
func viewOf(w http.ResponseWriter, m *model) (*View, bool) {
	v := m.currentView()
	if v == nil {
		writeError(w, fmt.Errorf("%w: push at least one snapshot batch first", ErrNoData))
		return nil, false
	}
	return v, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	models := s.reg.list()
	resp := HealthResponse{Status: "ok", Models: len(models)}
	for _, m := range models {
		resp.Health = append(resp.Health, m.health())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	info, err := s.CreateModel(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	models := s.reg.list()
	infos := make([]ModelInfo, 0, len(models))
	for _, m := range models {
		infos = append(infos, m.info())
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.deleteModel(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePush enqueues one snapshot batch and waits for the ingest loop to
// apply it (possibly coalesced with its queue neighbors into one stacked
// engine update).
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var mj MatrixJSON
	if !decodeJSON(w, r, &mj) {
		return
	}
	batch, err := mj.Matrix()
	if err != nil {
		writeError(w, err)
		return
	}
	if v, ok := ingest(w, r, m, update{x: batch}); ok {
		writeJSON(w, http.StatusOK, PushAck{Snapshots: v.Stats.Snapshots, Version: v.Version})
	}
}

// handlePushSketch ingests one compressed sketch factor pair (see
// SketchPushJSON). The pair rides the model's single-writer queue like a
// push, but never coalesces with raw batches: it is one engine update
// with its own compressed WAL record. Factor-pair shape errors (mismatched
// inner dimension, wrong row count) surface from SVD.PushSketch as 400s.
func (s *Server) handlePushSketch(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var sj SketchPushJSON
	if !decodeJSON(w, r, &sj) {
		return
	}
	q, err := sj.Q.Matrix()
	if err != nil {
		writeError(w, err)
		return
	}
	sk, err := sj.S.Matrix()
	if err != nil {
		writeError(w, err)
		return
	}
	if v, ok := ingest(w, r, m, update{x: q, s: sk}); ok {
		writeJSON(w, http.StatusOK, PushAck{Snapshots: v.Stats.Snapshots, Version: v.Version})
	}
}

// handleMerge absorbs another decomposition into the target model: a
// named sibling model (its published view, snapshotted to checkpoint
// form without touching its live engine) or uploaded checkpoint bytes.
// The merge rides the target's single-writer ingest queue, so it is
// ordered against pushes and covered by the same WAL durability barrier;
// a corrupt or incompatible checkpoint is refused (400) after full
// validation, with the target untouched and still serving.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req MergeRequest
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == "application/octet-stream" {
		// Raw checkpoint upload: the body IS the checkpoint, no base64
		// envelope. This is the path the coordinator (and client.Merge)
		// uses, streaming fetched shard checkpoints straight through.
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeJSON(w, http.StatusRequestEntityTooLarge,
					errorResponse{Error: fmt.Sprintf("server: request body exceeds %d bytes", tooBig.Limit)})
				return
			}
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "server: reading checkpoint body: " + err.Error()})
			return
		}
		req.Checkpoint = raw
	} else if !decodeJSON(w, r, &req) {
		return
	}
	var ckpt []byte
	switch {
	case req.Model != "" && len(req.Checkpoint) > 0:
		writeError(w, fmt.Errorf("server: merge takes a model name or checkpoint bytes, not both"))
		return
	case req.Model != "":
		if req.Model == m.name {
			writeError(w, fmt.Errorf("server: model %s cannot merge with itself: shards must be disjoint", m.name))
			return
		}
		src, err := s.reg.get(req.Model)
		if err != nil {
			writeError(w, err)
			return
		}
		v, ok := viewOf(w, src)
		if !ok {
			return
		}
		if _, ok := modesOf(w, v); !ok {
			return
		}
		var buf bytes.Buffer
		if err := parsvd.WriteCheckpoint(&buf, v.Configuration, v.Result); err != nil {
			writeError(w, err)
			return
		}
		ckpt = buf.Bytes()
	case len(req.Checkpoint) > 0:
		ckpt = req.Checkpoint
	default:
		writeError(w, fmt.Errorf("server: merge needs a source: set model or checkpoint"))
		return
	}

	if v, ok := ingest(w, r, m, update{ckpt: ckpt}); ok {
		writeJSON(w, http.StatusOK, MergeAck{Snapshots: v.Stats.Snapshots, Version: v.Version, MergeBound: v.MergeBound})
	}
}

// handleCheckpoint serializes the model's current published View as
// checkpoint bytes — the coordinator's collection primitive: a
// shard-marked model exports a shard-stamped checkpoint that any
// MergeReaders/POST /merge reduce accepts. The checkpoint is built from
// the copy-on-publish View, never the live engine, so exports cost the
// ingest loop nothing; it is buffered fully before the first byte is
// written, so a mid-serialize fault is still a clean error status, not
// a torn download. Distributed models (modes live out of process) are
// refused with ErrNoModes — fetch from the model's own periodic
// checkpoint file instead.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	v, ok := viewOf(w, m)
	if !ok {
		return
	}
	if _, ok := modesOf(w, v); !ok {
		return
	}
	var buf bytes.Buffer
	if err := parsvd.WriteCheckpoint(&buf, v.Configuration, v.Result); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Header().Set("X-Parsvd-Version", fmt.Sprint(v.Version))
	w.WriteHeader(http.StatusOK)
	buf.WriteTo(w)
}

func (s *Server) handleSpectrum(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	v, ok := viewOf(w, m)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, SpectrumResponse{
		Singular:    v.Result.Singular,
		Version:     v.Version,
		Snapshots:   v.Result.Snapshots,
		ModesSHA256: v.Result.ModesSHA256,
	})
}

func (s *Server) handleModes(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	v, ok := viewOf(w, m)
	if !ok {
		return
	}
	modes, ok := modesOf(w, v)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ModesResponse{
		Modes:   NewMatrixJSON(modes),
		Version: v.Version,
	})
}

// modesOf extracts the view's mode matrix, reporting ErrNoModes for
// models whose modes live out of process (the distributed backend ships
// a fingerprint, not the matrix).
func modesOf(w http.ResponseWriter, v *View) (*parsvd.Matrix, bool) {
	if v.Result.Modes == nil {
		writeError(w, ErrNoModes)
		return nil, false
	}
	return v.Result.Modes, true
}

// handleStats serves counters from the last published stats snapshot plus
// the live queue gauge: no gather, no engine lock, so it stays cheap even
// while a model churns through a large update.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, m.info())
}

// handleProject maps M×B snapshots to K×B modal coefficients (Uᵀ·a)
// against the current View's modes — snapshot-isolated from ingest.
func (s *Server) handleProject(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	v, ok := viewOf(w, m)
	if !ok {
		return
	}
	modes, ok := modesOf(w, v)
	if !ok {
		return
	}
	var mj MatrixJSON
	if !decodeJSON(w, r, &mj) {
		return
	}
	a, err := mj.Matrix()
	if err != nil {
		writeError(w, err)
		return
	}
	if a.Rows() != modes.Rows() {
		writeError(w, fmt.Errorf("server: project needs %d-row snapshots, got %d", modes.Rows(), a.Rows()))
		return
	}
	coeffs := parsvd.MulTransA(modes, a)
	writeJSON(w, http.StatusOK, MatrixResponse{Matrix: NewMatrixJSON(coeffs), Version: v.Version})
}

// handleReconstruct maps K×B coefficients back to snapshot space (U·c).
func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookup(w, r)
	if !ok {
		return
	}
	v, ok := viewOf(w, m)
	if !ok {
		return
	}
	modes, ok := modesOf(w, v)
	if !ok {
		return
	}
	var mj MatrixJSON
	if !decodeJSON(w, r, &mj) {
		return
	}
	c, err := mj.Matrix()
	if err != nil {
		writeError(w, err)
		return
	}
	if c.Rows() != modes.Cols() {
		writeError(w, fmt.Errorf("server: reconstruct needs %d-row coefficients, got %d", modes.Cols(), c.Rows()))
		return
	}
	snaps := parsvd.Mul(modes, c)
	writeJSON(w, http.StatusOK, MatrixResponse{Matrix: NewMatrixJSON(snaps), Version: v.Version})
}
