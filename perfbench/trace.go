package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans recorded by the benchmark around each call it makes into a
// layer of the program. They stay in memory and are written out once the
// run ends. Tracing inside the program is out of scope: a span covers a
// public call, and a layer's self time is what its span covers minus the
// part its child spans cover.

// span is one timed call. Times are nanoseconds since the trace epoch;
// Parent is -1 for a root span; Op identifies the operation (one root
// span and everything below it).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceSet owns the spans of one run; each goroutine records into its
// own tracer from fork, so recording takes no lock.
type traceSet struct {
	epoch time.Time
	ops   atomic.Int64

	mu      sync.Mutex
	tracers []*tracer
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

// fork returns a tracer for one goroutine. A nil traceSet forks nil
// tracers, whose methods record nothing: the untraced runs pay one nil
// check per call.
func (ts *traceSet) fork() *tracer {
	if ts == nil {
		return nil
	}
	t := &tracer{set: ts}
	ts.mu.Lock()
	ts.tracers = append(ts.tracers, t)
	ts.mu.Unlock()
	return t
}

// spans merges every tracer's spans, renumbering IDs to be unique. Call
// it only after every recording goroutine has finished.
func (ts *traceSet) spans() []span {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var out []span
	for _, t := range ts.tracers {
		base := len(out)
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

type tracer struct {
	set   *traceSet
	spans []span
	open  []int
}

// begin opens a span as a child of the innermost open span, or as the
// root of a new operation, and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	var op int64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		op = t.spans[parent].Op
	} else {
		op = t.set.ops.Add(1)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.set.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.set.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the length of the union of its children's intervals, clipped to
// the span itself. Overlapping children (concurrent work under one span)
// are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfMS groups the self times of all spans by name, in milliseconds.
// Span IDs must be their indices, as spans() returns them.
func selfMS(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
	}
	return out
}

// writeSpans stores the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, f.Close()
}
