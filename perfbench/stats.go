package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"masm/internal/obs"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// maxChunks bounds how many parts of the window steadyQuantile splits
// samples into, so that a part covers about a second of a 20-25 s run.
const maxChunks = 25

// steadyQuantile splits samples (in completion order) into consecutive
// chunks, each large enough to hold ten samples beyond the q-quantile, and
// returns the median of the chunks' q-quantiles, in unit.
func steadyQuantile(ss []sample, q float64, unit time.Duration) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	k := min(maxChunks, len(ss)/need)
	if k < 1 {
		k = 1
	}
	var qs []float64
	for c := 0; c < k; c++ {
		chunk := ss[c*len(ss)/k : (c+1)*len(ss)/k]
		xs := make([]float64, len(chunk))
		for i, s := range chunk {
			xs[i] = float64(s.d) / float64(unit)
		}
		qs = append(qs, quantile(xs, q))
	}
	return quantile(qs, 0.5)
}

// steadyRate is the median over the window's whole seconds of the
// per-second sum of f over the samples completed in that second.
func steadyRate(ss []sample, window time.Duration, f func(sample) float64) float64 {
	n := int(window / time.Second)
	if n < 1 {
		return 0
	}
	bins := make([]float64, n)
	for _, s := range ss {
		if i := int(s.at / time.Second); i < n {
			bins[i] += f(s)
		}
	}
	return quantile(bins, 0.5)
}

// tailPercentile names the highest of the usual reporting percentiles
// that has at least ten of n samples beyond it.
func tailPercentile(n int) string {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}} {
		if float64(n)*(1-p.q) >= 10 {
			return p.label
		}
	}
	return "max"
}

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta is the growth of a counter summed over all its label sets.
func counterDelta(m0, m1 obs.Snapshot, name string) float64 {
	return float64(m1.SumCounter(name) - m0.SumCounter(name))
}

// histDelta is the histogram of the observations made between two
// snapshots (all label sets merged).
func histDelta(m0, m1 obs.Snapshot, name string) *obs.HistSnapshot {
	counts := map[int64]int64{}
	d := &obs.HistSnapshot{}
	add := func(s obs.Snapshot, sign int64) {
		for _, m := range s.Metrics {
			if m.Name != name || m.Hist == nil {
				continue
			}
			d.Count += sign * m.Hist.Count
			d.Sum += sign * m.Hist.Sum
			for _, b := range m.Hist.Buckets {
				counts[b.Upper] += sign * b.Count
			}
		}
	}
	add(m1, 1)
	add(m0, -1)
	for upper, n := range counts {
		if n > 0 {
			d.Buckets = append(d.Buckets, obs.HistBucket{Upper: upper, Count: n})
		}
	}
	sort.Slice(d.Buckets, func(i, j int) bool { return d.Buckets[i].Upper < d.Buckets[j].Upper })
	return d
}

// gaugeMean averages a gauge over its label sets.
func gaugeMean(s obs.Snapshot, name string) float64 {
	var sum, n float64
	for _, m := range s.Metrics {
		if m.Name == name && m.Type == obs.TypeGauge {
			sum += float64(m.Value)
			n++
		}
	}
	return ratio(sum, n)
}

// cpuTicks reads the machine-wide busy and steal CPU time from /proc/stat
// (steal: time the hypervisor ran something else while this machine
// wanted the CPU).
func cpuTicks() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var total float64
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 3 || i == 4 { // idle, iowait
			total -= v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
