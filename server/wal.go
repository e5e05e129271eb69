package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	parsvd "goparsvd"
	"goparsvd/internal/mpi"
	"goparsvd/internal/mpi/tcptransport"
	"goparsvd/internal/wal"
)

// FsyncPolicy says when a model's write-ahead log reaches stable storage,
// and therefore what a 200 push ack means:
//
//   - FsyncAlways: the record is fsynced before the ack. An acked push
//     survives kill -9 and machine power loss (short of a lying disk).
//   - FsyncInterval: records are flushed in the background every
//     Config.FsyncInterval. An acked push survives a process crash (the
//     OS page cache holds it) but up to one interval of acked pushes can
//     be lost to a whole-machine failure.
//   - FsyncNever: flushing is left to the OS entirely. An acked push
//     survives a process crash; a machine failure loses whatever the
//     kernel had not written back yet.
//
// Without a WAL at all (Config.DisableWAL, or no CheckpointDir), an ack
// only means "applied in memory": every push since the last periodic
// checkpoint is lost on any crash. /healthz reports that exposure as the
// per-model dirty age.
type FsyncPolicy string

const (
	FsyncAlways   FsyncPolicy = "always"
	FsyncInterval FsyncPolicy = "interval"
	FsyncNever    FsyncPolicy = "never"
)

// syncPolicy maps the config spelling onto the wal package's policy. The
// empty string is the FsyncAlways default.
func (p FsyncPolicy) syncPolicy() (wal.SyncPolicy, error) {
	if p == "" {
		p = FsyncAlways
	}
	return wal.ParseSyncPolicy(string(p))
}

// Per-model on-disk layout under Config.CheckpointDir:
//
//	<name>.ckpt       periodic checkpoint (atomic write-then-rename)
//	<name>.spec.json  the creation spec, written durably at create time
//	<name>.wal/       segmented write-ahead log of applied micro-batches
//
// The spec file is what makes model creation itself durable: a model that
// crashes before its first checkpoint is rebuilt from the spec and
// re-fed from the WAL — including a distributed model, whose replay
// re-spawns and re-feeds its worker fleet.
func specFilePath(dir, name string) string { return filepath.Join(dir, name+".spec.json") }
func walDirPath(dir, name string) string   { return filepath.Join(dir, name+".wal") }

// openModelWAL opens (creating if absent) the model's write-ahead log
// with the server's durability policy.
func openModelWAL(cfg Config, name string) (*wal.Log, error) {
	sync, err := cfg.Fsync.syncPolicy()
	if err != nil {
		return nil, err
	}
	return wal.Open(walDirPath(cfg.CheckpointDir, name), wal.Options{
		Sync:     sync,
		Interval: cfg.FsyncInterval,
		Logf:     cfg.Logf,
	})
}

// encodeBatchPayload frames one applied micro-batch as a WAL record
// payload, reusing the tcptransport float64 body codec so the matrix
// round-trips bit-for-bit (IEEE-754 bit patterns, little-endian) —
// replaying the log reproduces the exact update stream.
func encodeBatchPayload(b *parsvd.Matrix) []byte {
	msg := mpi.Message{Rows: b.Rows(), Cols: b.Cols(), Data: b.RawData()}
	return tcptransport.AppendMessageBody(make([]byte, 0, 32+8*len(msg.Data)), msg)
}

// mergeMagic prefixes a WAL record that carries a merge instead of a
// snapshot micro-batch: the payload is the magic followed by the
// absorbed checkpoint bytes, verbatim. The prefix cannot collide with a
// batch record: a batch payload is a tcptransport message body, whose
// first 8 bytes are the little-endian Tag — always zero for ingest
// batches — while the magic is 8 non-zero ASCII bytes.
var mergeMagic = []byte("GPSVMERG")

// encodeMergePayload frames an applied merge for the WAL: replaying it
// re-applies the exact same checkpoint through parsvd.SVD.Merge.
func encodeMergePayload(ckpt []byte) []byte {
	return append(append(make([]byte, 0, len(mergeMagic)+len(ckpt)), mergeMagic...), ckpt...)
}

// isMergePayload distinguishes merge records from batch records.
func isMergePayload(payload []byte) bool {
	return len(payload) >= len(mergeMagic) && string(payload[:len(mergeMagic)]) == string(mergeMagic)
}

// mergeCheckpoint strips the magic, returning the absorbed checkpoint.
func mergeCheckpoint(payload []byte) []byte { return payload[len(mergeMagic):] }

// sketchMagic prefixes a WAL record that carries a sketched push: the
// compressed (Q, S) factor pair is logged exactly as it arrived — never
// the product Q·S — so the log stays as small as the wire traffic and
// replay reproduces the identical deterministic update. Like
// mergeMagic, the 8 non-zero ASCII bytes cannot collide with a batch
// record (whose first 8 bytes are the always-zero little-endian Tag).
var sketchMagic = []byte("GPSVSKCH")

// encodeSketchPayload frames an applied sketched push for the WAL:
// magic, a u32le length of the Q body, then the Q and S matrices in the
// same bit-exact tcptransport float64 framing batch records use.
func encodeSketchPayload(q, s *parsvd.Matrix) []byte {
	qm := mpi.Message{Rows: q.Rows(), Cols: q.Cols(), Data: q.RawData()}
	sm := mpi.Message{Rows: s.Rows(), Cols: s.Cols(), Data: s.RawData()}
	qBody := tcptransport.AppendMessageBody(make([]byte, 0, 32+8*len(qm.Data)), qm)
	payload := make([]byte, 0, len(sketchMagic)+4+len(qBody)+32+8*len(sm.Data))
	payload = append(payload, sketchMagic...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(qBody)))
	payload = append(payload, qBody...)
	return tcptransport.AppendMessageBody(payload, sm)
}

// isSketchPayload distinguishes sketched-push records from the others.
func isSketchPayload(payload []byte) bool {
	return len(payload) >= len(sketchMagic) && string(payload[:len(sketchMagic)]) == string(sketchMagic)
}

// decodeSketchPayload is the replay-side inverse of encodeSketchPayload.
func decodeSketchPayload(payload []byte) (q, s *parsvd.Matrix, err error) {
	body := payload[len(sketchMagic):]
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("server: wal sketch record truncated (%d bytes)", len(payload))
	}
	qlen := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if qlen < 0 || qlen > len(body) {
		return nil, nil, fmt.Errorf("server: wal sketch record claims %d-byte Q in a %d-byte body", qlen, len(body))
	}
	decode := func(part []byte, what string) (*parsvd.Matrix, error) {
		msg, err := tcptransport.DecodeMessageBody(part)
		if err != nil {
			return nil, fmt.Errorf("server: wal sketch record %s: %w", what, err)
		}
		m, err := parsvd.NewMatrixFromData(msg.Rows, msg.Cols, msg.Data)
		if err != nil {
			return nil, fmt.Errorf("server: wal sketch record carries a malformed %dx%d %s factor: %w", msg.Rows, msg.Cols, what, err)
		}
		return m, nil
	}
	if q, err = decode(body[:qlen], "Q"); err != nil {
		return nil, nil, err
	}
	if s, err = decode(body[qlen:], "S"); err != nil {
		return nil, nil, err
	}
	return q, s, nil
}

// decodeBatchPayload is the replay-side inverse.
func decodeBatchPayload(payload []byte) (*parsvd.Matrix, error) {
	msg, err := tcptransport.DecodeMessageBody(payload)
	if err != nil {
		return nil, fmt.Errorf("server: wal record: %w", err)
	}
	m, err := parsvd.NewMatrixFromData(msg.Rows, msg.Cols, msg.Data)
	if err != nil {
		return nil, fmt.Errorf("server: wal record carries a malformed %dx%d batch: %w", msg.Rows, msg.Cols, err)
	}
	return m, nil
}

// writeSpecFile persists the creation spec durably (write, fsync, atomic
// rename, directory fsync), so the model exists after a crash even before
// its first checkpoint.
func writeSpecFile(dir string, spec ModelSpec) error {
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encoding model spec: %w", err)
	}
	path := specFilePath(dir, spec.Name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: writing model spec: %w", err)
	}
	if _, err := f.Write(append(buf, '\n')); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: writing model spec: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: writing model spec: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: writing model spec: %w", err)
	}
	syncDir(dir)
	return nil
}

// readSpecFile loads a persisted creation spec and validates it belongs
// to the named model.
func readSpecFile(dir, name string) (ModelSpec, error) {
	buf, err := os.ReadFile(specFilePath(dir, name))
	if err != nil {
		return ModelSpec{}, err
	}
	var spec ModelSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return ModelSpec{}, fmt.Errorf("server: parsing model spec: %w", err)
	}
	if spec.Name != name {
		return ModelSpec{}, fmt.Errorf("server: spec file for %q names model %q", name, spec.Name)
	}
	return spec, nil
}

// quarantine renames a damaged file or directory out of the model
// namespace (the ".bad" convention checkpoints already use) so the next
// boot does not trip over it again. Best-effort.
func quarantine(logf func(string, ...any), path string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	if err := os.Rename(path, path+".bad"); err != nil {
		logf("parsvd-serve: quarantining %s: %v", path, err)
		return
	}
	logf("parsvd-serve: quarantined %s as %s.bad", path, path)
}

// syncDir fsyncs a directory so renames inside it survive a crash.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
