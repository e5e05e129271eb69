package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks (the "type 7" rule), NaN for an
// empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := (p / 100) * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail metric may use.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9}

// beyond is the number of samples of n that lie above percentile p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailPercentile is the highest ladder percentile, at most want, that
// has at least 10 of n samples beyond it. A tail metric keeps a fixed
// percentile per workload so runs stay comparable; this only lowers it
// when a run produced too few samples to support the fixed one. It
// returns 50 when even the median has fewer than 10 samples beyond it.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// latencies collects one operation class's samples in milliseconds.
type latencies struct {
	name string
	ms   []float64
	// tail is the fixed tail percentile for this class on this workload.
	tail float64
}

// summary reports p50 and the tail percentile actually used.
func (l *latencies) summary() (p50, tail, pct float64) {
	pct = tailPercentile(len(l.ms), l.tail)
	return median(l.ms), percentile(l.ms, pct), pct
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process in
// MiB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
