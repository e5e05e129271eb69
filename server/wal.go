package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"goparsvd/internal/launch"
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
//	<name>.wal/       segmented write-ahead log of applied updates
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

// A WAL record is one applied update, in one of three kinds:
//
//	batch   the snapshot batch's block body (launch.EncodeBlock)
//	sketch  "GPSVSKCH", then the factor-pair body (launch.AppendFactorPair),
//	        logged exactly as it arrived — never the product Q·S — so the
//	        log stays as small as the wire traffic
//	merge   "GPSVMERG", then the absorbed checkpoint, verbatim
//
// The bodies are the session protocol's own payloads, so the server and
// the worker fleet share one bit-exact codec (IEEE-754 bit patterns,
// little-endian): replay reproduces the exact update stream. The magics
// cannot collide with a batch record, whose first 8 bytes are the block
// tag — always zero, and launch.DecodeBlock refuses any other — while
// each magic is 8 non-zero ASCII bytes. Every record decodeRecord
// accepts re-encodes to the same bytes.
var (
	sketchMagic = []byte("GPSVSKCH")
	mergeMagic  = []byte("GPSVMERG")
)

// encodeRecord frames an applied update as a WAL record payload. A
// tagged record starts from the clipped magic, so its one allocation
// holds the whole record and never writes into the shared magic array.
func (u update) encodeRecord() []byte {
	switch {
	case u.ckpt != nil:
		return append(slices.Clip(mergeMagic), u.ckpt...)
	case u.s != nil:
		return launch.AppendFactorPair(slices.Clip(sketchMagic), u.x, u.s)
	}
	return launch.EncodeBlock(u.x)
}

// decodeRecord is the replay-side inverse of encodeRecord. A merge
// record's checkpoint aliases payload.
func decodeRecord(payload []byte) (update, error) {
	var u update
	var err error
	switch {
	case bytes.HasPrefix(payload, mergeMagic):
		u.ckpt = payload[len(mergeMagic):]
	case bytes.HasPrefix(payload, sketchMagic):
		u.x, u.s, err = launch.DecodeFactorPair(payload[len(sketchMagic):])
	default:
		u.x, err = launch.DecodeBlock(payload)
	}
	if err != nil {
		return update{}, fmt.Errorf("server: wal record: %w", err)
	}
	return u, nil
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
