package main

import (
	"fmt"
	"sync"
	"time"
)

// opStats is the record of one timed phase: latencies of the three
// operation classes every workload runs, the snapshot columns acked,
// and operations attempted and failed.
type opStats struct {
	mu        sync.Mutex
	push      latencies
	read      latencies
	reduce    latencies
	snapshots int
	attempted int
	failed    int
	elapsed   time.Duration
}

func newOpStats(tails [3]float64) *opStats {
	return &opStats{
		push:   latencies{name: "push", tail: tails[0]},
		read:   latencies{name: "read", tail: tails[1]},
		reduce: latencies{name: "reduce", tail: tails[2]},
	}
}

// record adds one operation of class l that took d; err != nil counts it
// as failed (its latency is not a sample: it missed any latency limit).
func (s *opStats) record(l *latencies, d time.Duration, err error, snapshots int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	s.snapshots += snapshots
}

// setEndToEnd fills the end-to-end metrics of an untraced run from its
// set-up times (seconds), its timed phase and the spectrum check.
func (o *outcome) setEndToEnd(setups []float64, ph *opStats, digits float64) error {
	rss, err := peakRSSMB(0)
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	m := map[string]float64{
		"setup_s":         median(setups),
		"snapshots_per_s": float64(ph.snapshots) / ph.elapsed.Seconds(),
		"spectrum_digits": digits,
		"peak_rss_mb":     rss,
	}
	for _, l := range []*latencies{&ph.push, &ph.read, &ph.reduce} {
		if len(l.ms) == 0 {
			return fmt.Errorf("no successful %s operation in the timed phase", l.name)
		}
		p50, tail, pct := l.summary()
		m[l.name+"_p50_ms"] = p50
		m[l.name+"_tail_ms"] = tail
		o.note("%s: %d samples, p50 %.4g ms, tail = p%g %.4g ms", l.name, len(l.ms), p50, pct, tail)
	}
	o.metrics = m
	o.note("setup: median of %d set-ups %v s", len(setups), setups)
	return nil
}

// timed runs op until d has elapsed and stamps the phase's elapsed time.
// op returns false to stop early.
func (s *opStats) timed(d time.Duration, op func(i int) bool) {
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if !op(i) {
			break
		}
	}
	s.elapsed += time.Since(start)
}
