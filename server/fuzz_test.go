package server

// Fuzz harness for the WAL record codec: replay parses record payloads
// read back from disk, where a torn write, a bit flip that slips past the
// CRC or a log from another build can put arbitrary bytes. Every payload
// must either be refused with an error or re-encode to exactly the same
// bytes; it must never panic. Run the seeds with `go test`, or explore
// with `go test -fuzz FuzzWALPayload ./server`.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	parsvd "goparsvd"
)

func FuzzWALPayload(f *testing.F) {
	// The committed seeds batch, sketch and merge_golden hold records as
	// earlier builds wrote them, and existing logs hold the same bytes:
	// they must still decode, and (by the invariant below) re-encode
	// unchanged. The rest of the committed corpus adds truncations and
	// lying Q lengths.
	for _, name := range []string{"batch", "sketch", "merge_golden"} {
		if _, err := decodeRecord(corpusSeed(f, name)); err != nil {
			f.Fatalf("committed record %s no longer decodes: %v", name, err)
		}
	}
	q, _ := parsvd.NewMatrixFromData(4, 2, []float64{1, 0, 0, 1, 0, 0, 0, 0})
	s, _ := parsvd.NewMatrixFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	f.Add(update{x: s}.encodeRecord())
	f.Add(update{x: q, s: s}.encodeRecord())
	f.Add(update{ckpt: []byte("GPSV\x01")}.encodeRecord())

	f.Fuzz(func(t *testing.T, payload []byte) {
		u, err := decodeRecord(payload)
		if err != nil {
			return
		}
		// The checkpoint bytes of a merge reach Merge verbatim
		// (FuzzReadState covers their parser).
		if got := u.encodeRecord(); !bytes.Equal(got, payload) {
			t.Fatalf("accepted record re-encodes to different bytes:\n got %q\nwant %q", got, payload)
		}
	})
}

// corpusSeed reads one single-[]byte entry of the committed
// FuzzWALPayload corpus.
func corpusSeed(f *testing.F, name string) []byte {
	f.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzWALPayload", name))
	if err != nil {
		f.Fatal(err)
	}
	_, entry, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(entry, "[]byte(")
	if !ok {
		f.Fatalf("corpus entry %s is not a []byte value", name)
	}
	seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		f.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(seed)
}
