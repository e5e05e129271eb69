package launch

// Fuzz harness for the session-protocol boundary: the frame reader and
// the payload decoders parse bytes written by another process, so they
// must never panic, never over-allocate against a lying length prefix,
// and never let non-finite snapshot data through into a collective
// update. Run the seeds with `go test`, or explore with
// `go test -fuzz FuzzReadSessionFrame ./internal/launch` (and the other
// targets likewise).

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"goparsvd/internal/mat"
)

// frameSeed renders one well-formed frame.
func frameSeed(verb byte, body []byte) []byte {
	var buf bytes.Buffer
	if err := WriteSessionFrame(&buf, verb, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadSessionFrame(f *testing.F) {
	valid := frameSeed(SessPush, EncodeBlock(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})))
	f.Add(valid)
	f.Add(valid[:3])                                    // truncated header
	f.Add(valid[:7])                                    // truncated body
	f.Add(frameSeed(SessOK, []byte(`{}`)))              // JSON body
	f.Add(frameSeed(SessShutdown, nil))                 // empty body
	f.Add([]byte{0, 0, 0, 0})                           // zero length
	f.Add([]byte{255, 255, 255, 255, 1})                // absurd length
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<28)) // huge declared, no data

	f.Fuzz(func(t *testing.T, data []byte) {
		verb, body, err := ReadSessionFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must be internally consistent: the frame
		// re-encodes to the exact bytes consumed.
		var rt bytes.Buffer
		if err := WriteSessionFrame(&rt, verb, body); err != nil {
			t.Fatalf("re-encoding a parsed frame failed: %v", err)
		}
		if !bytes.Equal(rt.Bytes(), data[:rt.Len()]) {
			t.Fatalf("frame did not round-trip")
		}
	})
}

func FuzzDecodeBlock(f *testing.F) {
	f.Add(EncodeBlock(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})))
	f.Add(EncodeBlock(mat.NewFromData(1, 1, []float64{-0.0})))
	f.Add(EncodeBlock(mat.NewFromData(1, 2, []float64{math.NaN(), 1})))         // must be rejected
	f.Add(EncodeBlock(mat.NewFromData(1, 2, []float64{math.Inf(1), 1})))        // must be rejected
	f.Add(EncodeBlock(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6}))[:20]) // truncated
	// A header that declares a huge float count with no payload behind it.
	huge := make([]byte, 32)
	binary.LittleEndian.PutUint64(huge[8:], 4)      // rows
	binary.LittleEndian.PutUint64(huge[16:], 4)     // cols
	binary.LittleEndian.PutUint64(huge[24:], 1<<40) // count lie
	f.Add(huge)
	// Dims that disagree with the count.
	bad := EncodeBlock(mat.NewFromData(2, 2, []float64{1, 2, 3, 4}))
	binary.LittleEndian.PutUint64(bad[8:], 3) // rows 2 -> 3
	f.Add(bad)
	// Dims whose int64 product wraps back to the payload length:
	// (2^61+1)·8 ≡ 8 mod 2^64, so a multiplying check would accept it.
	wrap := EncodeBlock(mat.NewFromData(1, 8, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	binary.LittleEndian.PutUint64(wrap[8:], 1<<61|1) // rows 1 -> 2^61+1
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBlock(data)
		if err != nil {
			return
		}
		// Everything DecodeBlock lets through must satisfy the snapshot
		// invariants: positive dims, matching payload, finite values.
		r, c := m.Dims()
		if r < 1 || c < 1 {
			t.Fatalf("accepted non-positive dims %dx%d", r, c)
		}
		if len(m.RawData()) != r*c {
			t.Fatalf("accepted %d values for a %dx%d block", len(m.RawData()), r, c)
		}
		for _, v := range m.RawData() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite snapshot value %g", v)
			}
		}
	})
}

func FuzzDecodeFloats(f *testing.F) {
	f.Add(EncodeFloats([]float64{1, 2, 3}))
	f.Add(EncodeFloats(nil))
	f.Add(EncodeFloats([]float64{math.NaN(), math.Inf(-1), -0.0})) // legal for spectra
	f.Add(EncodeBlock(mat.NewFromData(1, 1, []float64{1})))        // matrix body: must be rejected
	f.Add([]byte{1, 2, 3})                                         // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeFloats(data)
		if err != nil {
			return
		}
		// Bit-exact round trip, NaNs included.
		if !equalFloatsBits(v, mustDecodeFloats(t, EncodeFloats(v))) {
			t.Fatal("floats did not round-trip bit-exactly")
		}
	})
}

func mustDecodeFloats(t *testing.T, body []byte) []float64 {
	t.Helper()
	v, err := DecodeFloats(body)
	if err != nil {
		t.Fatalf("re-decoding round-tripped floats: %v", err)
	}
	return v
}

// TestDecodeBlockRejectsHostileInputs pins the hard rejections of the
// block decoder and of the factor-pair decoder built on it (which parses
// PUSH-SKETCH frames and the server's WAL sketch records alike) outside
// the fuzzer, so `go test` alone proves them: truncation, oversize
// declared lengths, dimension lies, tags and non-finite payloads all
// error — never panic, never allocate the declared size.
func TestDecodeBlockRejectsHostileInputs(t *testing.T) {
	block := func(b []byte) error { _, err := DecodeBlock(b); return err }
	pair := func(b []byte) error { _, _, err := DecodeFactorPair(b); return err }
	good := EncodeBlock(mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	q := mat.NewFromData(4, 2, []float64{1, 0, 0, 1, 0, 0, 0, 0})
	goodPair := EncodeFactorPair(q, mat.NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	type input struct {
		decode func([]byte) error
		data   []byte
	}
	cases := map[string]input{
		"empty":     {block, nil},
		"short":     {block, good[:16]},
		"truncated": {block, good[:len(good)-8]},
	}
	lie := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(lie[24:], 1<<40) // count ≫ payload
	cases["count lie"] = input{block, lie}
	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(zero[8:], 0) // rows = 0
	cases["zero rows"] = input{block, zero}
	tag := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(tag[0:], 7) // no writer sets a tag
	cases["nonzero tag"] = input{block, tag}
	wrap := EncodeBlock(mat.NewFromData(1, 8, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	binary.LittleEndian.PutUint64(wrap[8:], 1<<61|1) // (2^61+1)·8 wraps to 8
	cases["dims product overflow"] = input{block, wrap}
	nan := EncodeBlock(mat.NewFromData(1, 2, []float64{math.NaN(), 1}))
	cases["nan payload"] = input{block, nan}
	inf := EncodeBlock(mat.NewFromData(1, 2, []float64{1, math.Inf(1)}))
	cases["inf payload"] = input{block, inf}

	qPast := append([]byte(nil), goodPair...)
	binary.LittleEndian.PutUint32(qPast, uint32(len(goodPair))) // Q runs past the body
	cases["pair Q length past body"] = input{pair, qPast}
	qMax := append([]byte(nil), goodPair...)
	binary.LittleEndian.PutUint32(qMax, 1<<32-1)
	cases["pair Q length 2^32-1"] = input{pair, qMax}
	cases["pair inner dimension mismatch"] = input{pair,
		EncodeFactorPair(q, mat.NewFromData(3, 2, []float64{1, 2, 3, 4, 5, 6}))}
	cases["pair NaN in S"] = input{pair,
		EncodeFactorPair(q, mat.NewFromData(2, 1, []float64{1, math.NaN()}))}
	cases["pair empty S"] = input{pair, goodPair[:4+binary.LittleEndian.Uint32(goodPair)]}
	for name, c := range cases {
		if c.decode(c.data) == nil {
			t.Errorf("%s: decoder accepted hostile input", name)
		}
	}
	if err := block(good); err != nil {
		t.Errorf("well-formed block rejected: %v", err)
	}
	if err := pair(goodPair); err != nil {
		t.Errorf("well-formed factor pair rejected: %v", err)
	}
}

// TestReadSessionFrameBoundsAllocation: a frame whose length prefix
// promises far more than the stream delivers must fail after at most one
// chunk of allocation — not attempt the full declared size.
func TestReadSessionFrameBoundsAllocation(t *testing.T) {
	// Declares ~256 MiB, delivers 16 bytes.
	data := binary.LittleEndian.AppendUint32(nil, 1<<28)
	data = append(data, make([]byte, 16)...)
	if _, _, err := ReadSessionFrame(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated oversize frame did not error")
	}
	// Over the absolute bound: rejected before reading any body.
	over := binary.LittleEndian.AppendUint32(nil, uint32(maxSessionFrame+1))
	if _, _, err := ReadSessionFrame(bytes.NewReader(over)); err == nil {
		t.Fatal("over-bound frame length did not error")
	}
}
