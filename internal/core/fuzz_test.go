package core

// Fuzz harness for the checkpoint reader: ReadState parses bytes from
// outside the process (uploaded merge bodies, checkpoint files, WAL merge
// records), so it must never panic, never allocate the size a header
// merely claims, and only accept states that round-trip. Run the seeds
// with `go test`, or explore with `go test -fuzz FuzzReadState
// ./internal/core`.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"goparsvd/internal/mat"
)

// v1HeaderLen is the byte length of a version-1 checkpoint header, up to
// and including the (rows, cols) shape.
const v1HeaderLen = 94

// hostileHeader renders a valid version-1 header that declares a
// rows×cols payload and carries none of it.
func hostileHeader(t testing.TB, rows, cols int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	st := State{
		Opts:     Options{K: 1, ForgetFactor: 1},
		Modes:    mat.New(1, 1),
		Singular: []float64{1},
	}
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()[:v1HeaderLen]
	binary.LittleEndian.PutUint64(blob[v1HeaderLen-16:], uint64(rows))
	binary.LittleEndian.PutUint64(blob[v1HeaderLen-8:], uint64(cols))
	return blob
}

// TestReadStateHostileShape: headers whose shape is implausible, wraps
// rows*cols past the sanity bound, or promises gigabytes that never
// arrive are refused as ErrBadCheckpoint, allocating no more than one
// read chunk on the way.
func TestReadStateHostileShape(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int64
	}{
		{"cols 2^32, no payload", 1, 1 << 32},
		{"rows*cols wraps to zero", 1 << 33, 1 << 33},
		{"rows*cols wraps below bound", 1<<62 + 1, 4},
		{"negative rows", -1, 4},
		{"cols beyond bound", 0, 1 << 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := hostileHeader(t, tc.rows, tc.cols)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadState(bytes.NewReader(blob))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("ReadState(%dx%d header) = %v, want ErrBadCheckpoint", tc.rows, tc.cols, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("refusing a %d-byte checkpoint allocated %d bytes", len(blob), got)
			}
		})
	}
}

func FuzzReadState(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoint_v1_serial.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:5])                 // magic and version only
	f.Add(golden[:v1HeaderLen-1])     // header cut inside the shape
	f.Add(golden[:v1HeaderLen+12])    // payload cut inside the singular values
	f.Add(hostileHeader(f, 1, 1<<32)) // shape promising 32 GiB
	f.Add(hostileHeader(f, 1<<33, 1<<33))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadState(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("ReadState error %v does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		// An accepted state is internally consistent and survives a
		// write/read round trip unchanged.
		rows, cols := st.Modes.Dims()
		if len(st.Singular) != cols || len(st.Modes.RawData()) != rows*cols {
			t.Fatalf("accepted %dx%d modes with %d values and %d entries",
				rows, cols, len(st.Singular), len(st.Modes.RawData()))
		}
		var buf bytes.Buffer
		if err := WriteState(&buf, st); err != nil {
			t.Fatalf("re-encoding an accepted state: %v", err)
		}
		again, err := ReadState(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted state: %v", err)
		}
		if again.Opts != st.Opts || again.Shard != st.Shard ||
			again.Iterations != st.Iterations || again.Snapshots != st.Snapshots ||
			!bytes.Equal(floatBytes(again.Singular), floatBytes(st.Singular)) ||
			!bytes.Equal(floatBytes(again.Modes.RawData()), floatBytes(st.Modes.RawData())) {
			t.Fatal("accepted state did not round-trip")
		}
	})
}

// floatBytes renders floats bit-exactly, so NaN payloads compare equal.
func floatBytes(v []float64) []byte {
	out := make([]byte, 0, 8*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}
