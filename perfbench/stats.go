package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// minBeyondTail is how many samples must lie above the reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p in n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank percentile p of ascending samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle of xs (the mean of the two middles for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile picks the percentile to report as the tail of n samples:
// the highest ladder entry not above want that leaves at least
// minBeyondTail samples strictly above it. It returns that percentile and
// the number of samples beyond it; ok is false when even the median leaves
// too few.
func tailPercentile(n int, want float64) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if b := n - rank(n, p); b >= minBeyondTail {
			return p, b, true
		}
	}
	return 0, 0, false
}

// perOp normalises a counter delta to one operation; zero operations read
// as zero rather than a division by zero.
func perOp(delta float64, ops int) float64 { return ratio(delta, float64(ops)) }

// ratio divides two counter deltas, reading zero when nothing happened.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop is an open-loop arrival schedule: request k is due at
// start + k·interval, whether or not earlier requests have finished.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

// due returns when request k should be sent.
func (o openLoop) due(k int) time.Time {
	return o.start.Add(time.Duration(k) * o.interval)
}

// lag is how late the generator issued a request past its due time; an
// early wake-up counts as on time.
func lag(due, issued time.Time) time.Duration {
	return max(0, issued.Sub(due))
}

// dueLatency is a request's latency measured from its due time, so a
// generator stall is charged to every request it delayed.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// host is what the benchmark observes of its neighbours over an interval of
// wall length wall: probe is the slower of the host probes taken at its two
// ends, and wait is how long the process's threads sat runnable without a
// CPU.
type host struct {
	probe, wait, wall time.Duration
}

// score estimates how much the host slowed the interval: the probe time
// (which a neighbour's memory traffic raises) scaled up by the share of it
// spent waiting for a CPU (which a neighbour's CPU use raises). Neither
// depends on the cost of the workload's own operations.
func (h host) score() float64 {
	return float64(h.probe) * (1 + ratio(h.wait.Seconds(), h.wall.Seconds()))
}

// window is one measurement interval: its host observation, the process
// CPU time spent in it, and the operations that completed in it, as a
// range of the meter's samples.
type window struct {
	host
	cpu      time.Duration
	from, to int
}

// reading is one clock reading: the wall time, the process's CPU time and
// its threads' total run-queue wait.
type reading struct {
	at        time.Time
	cpu, wait time.Duration
}

// clock takes a reading.
type clock func() reading

// windowMeter records per-operation latency samples and cuts them into
// windows at operation boundaries, each at least `every` long. Between two
// windows it runs the host probe; the probe's own time is in no window.
type windowMeter struct {
	every     time.Duration
	clock     clock
	probe     func() time.Duration
	last      reading
	lastProbe time.Duration
	lat       []float64 // ms, in completion order
	windows   []window
}

func newWindowMeter(every time.Duration, c clock, probe func() time.Duration) *windowMeter {
	w := &windowMeter{every: every, clock: c, probe: probe}
	w.lastProbe = probe()
	w.last = c()
	return w
}

// done records one operation that completed at now with its latency,
// closing a window when the current one is long enough.
func (w *windowMeter) done(now time.Time, latMS float64) {
	w.lat = append(w.lat, latMS)
	if now.Sub(w.last.at) < w.every {
		return
	}
	from := 0
	if n := len(w.windows); n > 0 {
		from = w.windows[n-1].to
	}
	r := w.clock()
	probe := w.probe()
	w.windows = append(w.windows, window{
		host: host{probe: max(w.lastProbe, probe), wait: r.wait - w.last.wait, wall: now.Sub(w.last.at)},
		cpu:  r.cpu - w.last.cpu, from: from, to: len(w.lat),
	})
	w.lastProbe = probe
	w.last = w.clock()
}

// extend appends another meter's samples and windows, as if its
// measurement had followed this one's directly.
func (w *windowMeter) extend(o *windowMeter) {
	off := len(w.lat)
	w.lat = append(w.lat, o.lat...)
	for _, win := range o.windows {
		win.from += off
		win.to += off
		w.windows = append(w.windows, win)
	}
}

// quietest returns the n elements of xs (all of them if fewer) with the
// lowest host scores; ties keep their order.
func quietest[T any](xs []T, host func(T) host, n int) []T {
	ranked := slices.Clone(xs)
	slices.SortStableFunc(ranked, func(a, b T) int { return cmp.Compare(host(a).score(), host(b).score()) })
	return ranked[:min(n, len(ranked))]
}

// summary is the end-to-end view of a set of windows.
type summary struct {
	windows    int
	throughput float64   // ops per second of window wall time
	cpuPerOp   float64   // ms
	lat        []float64 // ascending, ms
	scoreMax   float64   // the highest host score pooled, in probe ns
}

// quiet pools the share of windows with the lowest host score. Host
// contention on a shared machine comes in phases of seconds that slow every
// operation; pooling the windows the host looked quiet in measures the
// program rather than its neighbours. The score does not depend on the
// workload's op cost, so a change that slows some ops is not ranked out
// with them: their windows are kept as often as any others. The share is
// rounded up to whole windows, at least one; share 1 pools every window.
func (w *windowMeter) quiet(share float64) summary {
	var s summary
	var wall, cpu time.Duration
	n := max(1, int(math.Ceil(share*float64(len(w.windows)))))
	for _, win := range quietest(w.windows, func(win window) host { return win.host }, n) {
		s.windows++
		wall += win.wall
		cpu += win.cpu
		s.scoreMax = max(s.scoreMax, win.score())
		s.lat = append(s.lat, w.lat[win.from:win.to]...)
	}
	slices.Sort(s.lat)
	s.throughput = ratio(float64(len(s.lat)), wall.Seconds())
	s.cpuPerOp = ratio(ms(cpu), float64(len(s.lat)))
	return s
}
