package server

// Fuzz harness for the WAL payload decoders: replay parses record
// payloads read back from disk, where a torn write, a bit flip that slips
// past the CRC or a log from another build can put arbitrary bytes. Every
// payload must either be refused with an error or decode to a matrix that
// re-encodes to the same record; it must never panic. Run the seeds with
// `go test`, or explore with `go test -fuzz FuzzWALPayload ./server`.

import (
	"bytes"
	"math"
	"testing"

	parsvd "goparsvd"
)

func FuzzWALPayload(f *testing.F) {
	// Fresh encodings keep the round-trip seeds in step with the encoders;
	// the committed corpus under testdata/fuzz/FuzzWALPayload adds the
	// truncations and lying Q lengths.
	q, _ := parsvd.NewMatrixFromData(4, 2, []float64{1, 0, 0, 1, 0, 0, 0, 0})
	s, _ := parsvd.NewMatrixFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	f.Add(encodeBatchPayload(s))
	f.Add(encodeSketchPayload(q, s))
	f.Add(encodeMergePayload([]byte("GPSV\x01")))

	f.Fuzz(func(t *testing.T, payload []byte) {
		// The same dispatch replay applies, in the same order.
		switch {
		case isMergePayload(payload):
			// The checkpoint bytes reach Merge verbatim (FuzzReadState
			// covers their parser); only the framing is checked here.
			if got := encodeMergePayload(mergeCheckpoint(payload)); !bytes.Equal(got, payload) {
				t.Fatal("merge record did not round-trip")
			}
		case isSketchPayload(payload):
			q, s, err := decodeSketchPayload(payload)
			if err != nil {
				return
			}
			q2, s2, err := decodeSketchPayload(encodeSketchPayload(q, s))
			if err != nil {
				t.Fatalf("re-decoding an accepted sketch record: %v", err)
			}
			sameMatrix(t, q, q2)
			sameMatrix(t, s, s2)
		default:
			b, err := decodeBatchPayload(payload)
			if err != nil {
				return
			}
			b2, err := decodeBatchPayload(encodeBatchPayload(b))
			if err != nil {
				t.Fatalf("re-decoding an accepted batch record: %v", err)
			}
			sameMatrix(t, b, b2)
		}
	})
}

// sameMatrix fails unless a holds exactly rows·cols values (checked
// without overflow) and b is a bit-identical copy of it.
func sameMatrix(t *testing.T, a, b *parsvd.Matrix) {
	t.Helper()
	r, c := a.Dims()
	n := len(a.RawData())
	if r < 0 || c < 0 || (r == 0 && n != 0) || (r != 0 && (n%r != 0 || n/r != c)) {
		t.Fatalf("accepted a %dx%d matrix holding %d values", r, c, n)
	}
	if r2, c2 := b.Dims(); r2 != r || c2 != c || len(b.RawData()) != n {
		t.Fatalf("round trip changed a %dx%d matrix into %dx%d", r, c, r2, c2)
	}
	for i, v := range a.RawData() {
		if math.Float64bits(v) != math.Float64bits(b.RawData()[i]) {
			t.Fatalf("round trip changed value %d: %v -> %v", i, v, b.RawData()[i])
		}
	}
}
