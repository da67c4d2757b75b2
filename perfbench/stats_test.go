package main

import (
	"math"
	"testing"
	"time"

	"mbfaa"
	"mbfaa/internal/transport"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n          int
		want       float64
		p          float64
		beyond     int
		selectable bool
	}{
		{n: 1000, want: 99.9, p: 99, beyond: 10, selectable: true},
		{n: 1000, want: 90, p: 90, beyond: 100, selectable: true},
		{n: 2000, want: 99.9, p: 99.5, beyond: 10, selectable: true},
		{n: 100, want: 99, p: 90, beyond: 10, selectable: true},
		{n: 99, want: 99, p: 80, beyond: 19, selectable: true},
		{n: 20, want: 90, p: 50, beyond: 10, selectable: true},
		{n: 19, want: 90, selectable: false},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n, c.want)
		if ok != c.selectable || p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d, %v) = (%v, %d, %v), want (%v, %d, %v)",
				c.n, c.want, p, beyond, ok, c.p, c.beyond, c.selectable)
		}
	}
}

// The selected tail is the highest ladder entry with enough samples beyond
// it: every higher entry allowed by want has fewer than minBeyondTail.
func TestTailPercentileIsHighestWithEnoughBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		p, beyond, ok := tailPercentile(n, 99.9)
		if !ok {
			if n >= 2*minBeyondTail {
				t.Fatalf("n=%d: no tail selected", n)
			}
			continue
		}
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if above := n - 1 - int(percentile(sorted, p)); above != beyond || beyond < minBeyondTail {
			t.Fatalf("n=%d p%v: %d samples above the percentile, reported %d", n, p, above, beyond)
		}
		for _, higher := range tailLadder {
			if higher > p && n-rank(n, higher) >= minBeyondTail {
				t.Fatalf("n=%d: p%v also leaves %d beyond but p%v was chosen", n, higher, n-rank(n, higher), p)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(sorted, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty samples must read NaN")
	}
}

// An open-loop request is timed from its due time: a generator that runs
// late charges its lag to the request's latency.
func TestOpenLoopDueLatencyAndLag(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sched := openLoop{start: t0, interval: 10 * time.Millisecond}
	due := sched.due(3)
	if want := t0.Add(30 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("due(3) = %v, want %v", due, want)
	}
	issued := t0.Add(45 * time.Millisecond)
	done := t0.Add(50 * time.Millisecond)
	if got := lag(due, issued); got != 15*time.Millisecond {
		t.Errorf("lag = %v, want 15ms", got)
	}
	if got := dueLatency(due, done); got != 20*time.Millisecond {
		t.Errorf("latency from due = %v, want 20ms (not the 5ms since issue)", got)
	}
	if got := lag(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early issue lag = %v, want 0", got)
	}
}

func TestServiceCountersNormalisePerOp(t *testing.T) {
	before := mbfaa.ServiceStats{Frames: 100, Flushes: 50, Unrouted: 1, Stale: 2, InboxDrops: 3, SocketFrames: 80, SocketWrites: 20}
	after := mbfaa.ServiceStats{Frames: 900, Flushes: 250, Unrouted: 1, Stale: 6, InboxDrops: 3, SocketFrames: 880, SocketWrites: 220}
	got := serviceLayers(before, after, 100)
	want := map[string]float64{
		"service.frames_per_flush":   4,
		"service.flushes_per_op":     2,
		"service.drops_per_op":       0.04,
		"transport.frames_per_write": 4,
		"transport.writes_per_op":    2,
		"transport.bytes_per_op":     8 * transport.FrameSize,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if got := serviceLayers(before, before, 0); got["service.flushes_per_op"] != 0 || got["service.frames_per_flush"] != 0 {
		t.Errorf("an empty pass must read zero, got %v", got)
	}
	if got := perOp(30, 4); got != 7.5 {
		t.Errorf("perOp(30, 4) = %v", got)
	}
}

// fakeClock is a scripted clock.
type fakeClock struct{ reading }

func (c *fakeClock) read() reading { return c.reading }

// fakeProbe returns scripted host probe readings in µs, in order.
func fakeProbe(us ...int) func() time.Duration {
	return func() time.Duration {
		v := us[0]
		us = us[1:]
		return time.Duration(v) * time.Microsecond
	}
}

// script drives m through one-second windows of ten 100 ms ops each,
// window i with the given latency and CPU per op.
func script(clk *fakeClock, m *windowMeter, lat []float64, cpu []time.Duration) {
	for i := range lat {
		for op := 0; op < 10; op++ {
			clk.at = clk.at.Add(100 * time.Millisecond)
			clk.cpu += cpu[i]
			m.done(clk.at, lat[i])
		}
	}
}

func TestQuietPoolsWindowsWithQuietestProbe(t *testing.T) {
	clk := &fakeClock{reading{at: time.Unix(0, 0)}}
	// Probes before window 0 and after each of the four windows. A window
	// scores the slower of its two ends: 300, 360, 360, 290.
	m := newWindowMeter(time.Second, clk.read, fakeProbe(280, 300, 360, 290, 280))
	ms := time.Millisecond
	script(clk, m, []float64{5, 50, 6, 7}, []time.Duration{10 * ms, 30 * ms, 18 * ms, 12 * ms})
	if len(m.windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(m.windows))
	}
	for i, want := range []time.Duration{300, 360, 360, 290} {
		if got := m.windows[i].probe; got != want*time.Microsecond {
			t.Errorf("window %d probe score %v, want %v", i, got, want*time.Microsecond)
		}
	}
	q := m.quiet(0.5)
	if q.windows != 2 || len(q.lat) != 20 {
		t.Fatalf("quiet half pooled %d windows / %d samples, want 2 / 20", q.windows, len(q.lat))
	}
	// Windows 3 and 0 have the lowest scores.
	if q.lat[0] != 5 || q.lat[19] != 7 {
		t.Errorf("pooled latencies %v..%v, want windows 0 and 3 (5 and 7 ms)", q.lat[0], q.lat[19])
	}
	if math.Abs(q.cpuPerOp-11) > 1e-9 || math.Abs(q.throughput-10) > 1e-9 || q.scoreMax != 300e3 {
		t.Errorf("cpu/op %v ms, throughput %v/s, score max %v; want 11, 10, 300e3", q.cpuPerOp, q.throughput, q.scoreMax)
	}
	all := m.quiet(1)
	if all.windows != 4 || len(all.lat) != 40 || percentile(all.lat, 90) != 50 {
		t.Errorf("share 1 must pool every window, got %d windows, p90 %v", all.windows, percentile(all.lat, 90))
	}
}

// The probe's own time lies in no window: the next window starts when the
// clock is read after it.
func TestProbeTimeIsInNoWindow(t *testing.T) {
	clk := &fakeClock{reading{at: time.Unix(0, 0)}}
	probe := func() time.Duration {
		clk.at = clk.at.Add(50 * time.Millisecond)
		clk.cpu += 40 * time.Millisecond
		return time.Millisecond
	}
	m := newWindowMeter(time.Second, clk.read, probe)
	script(clk, m, []float64{1, 1}, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	for i, w := range m.windows {
		if w.wall != time.Second || w.cpu != 100*time.Millisecond {
			t.Errorf("window %d: wall %v, cpu %v; want 1s and 100ms", i, w.wall, w.cpu)
		}
	}
}

// A window in which the process waited for a CPU scores worse than its
// probe alone: half the wall time waiting scales the probe by 1.5.
func TestRunQueueWaitRaisesHostScore(t *testing.T) {
	clk := &fakeClock{reading{at: time.Unix(0, 0)}}
	m := newWindowMeter(time.Second, clk.read, fakeProbe(300, 300, 300, 300))
	for win := 0; win < 3; win++ {
		for op := 0; op < 10; op++ {
			clk.at = clk.at.Add(100 * time.Millisecond)
			if win == 1 {
				clk.wait += 50 * time.Millisecond
			}
			m.done(clk.at, float64(win))
		}
	}
	if got := m.windows[1].score(); got != 450e3 {
		t.Errorf("window with 0.5 s of run-queue wait scores %v, want 450e3", got)
	}
	if q := m.quiet(0.5); q.windows != 2 || q.lat[0] != 0 || q.lat[19] != 2 {
		t.Errorf("quiet half pooled %d windows %v..%v, want windows 0 and 2", q.windows, q.lat[0], q.lat[len(q.lat)-1])
	}
}

func TestQuietestKeepsShareAndOrderOfTies(t *testing.T) {
	id := func(h host) host { return h }
	reps := []host{{probe: 300, wall: 1}, {probe: 200, wall: 2}, {probe: 200, wall: 3}, {probe: 100, wall: 4}, {probe: 400, wall: 5}}
	got := quietest(reps, id, 3)
	if len(got) != 3 || got[0].wall != 4 || got[1].wall != 2 || got[2].wall != 3 {
		t.Errorf("quietest 3 = %v, want set-ups 4, 2, 3", got)
	}
	if got := quietest(reps[:2], id, 3); len(got) != 2 {
		t.Errorf("quietest 3 of 2 = %v, want both", got)
	}
	if q := (&windowMeter{windows: []window{{to: 1}}, lat: []float64{1}}).quiet(0.01); q.windows != 1 {
		t.Errorf("a share keeps at least one window, got %d", q.windows)
	}
}

func TestExtendOffsetsWindows(t *testing.T) {
	clk := &fakeClock{reading{at: time.Unix(0, 0)}}
	a := newWindowMeter(time.Second, clk.read, fakeProbe(100, 100))
	b := newWindowMeter(time.Second, clk.read, fakeProbe(200, 200))
	for i := 1; i <= 3; i++ {
		clk.at = time.Unix(0, 0).Add(time.Duration(i) * 600 * time.Millisecond)
		clk.cpu += time.Millisecond
		a.done(clk.at, 1)
		clk.cpu += 5 * time.Millisecond
		b.done(clk.at, 2)
	}
	// Each meter closed one window (ops 1-2) and holds a trailing op.
	a.extend(b)
	if len(a.lat) != 6 || len(a.windows) != 2 {
		t.Fatalf("extended meter has %d samples / %d windows, want 6 / 2", len(a.lat), len(a.windows))
	}
	if w := a.windows[1]; w.from != 3 || w.to != 5 {
		t.Fatalf("appended window covers [%d,%d), want [3,5)", w.from, w.to)
	}
	if q := a.quiet(0.5); q.lat[0] != 1 || q.lat[1] != 1 {
		t.Errorf("quiet half pooled %v, want the first meter's window", q.lat)
	}
}

// The windows are chosen by the host probe, not by the ops' own cost, so
// ops that a change makes slow stay in the latency percentiles, while the
// windows a busy neighbour slowed are left out.
func TestEndToEndKeepsSlowOpsOfQuietWindows(t *testing.T) {
	clk := &fakeClock{reading{at: time.Unix(0, 0)}}
	// Enough windows that the quiet share is five of them. The probe reads
	// 400 µs before the first third of the windows and 280 µs from then on,
	// so the first third score 400 and are contended (20 ms ops); the rest
	// score 280. In the first and fourth quiet windows the program itself
	// is slow (50 ms ops).
	total := int(math.Round(5 / quietShare))
	loud := total / 3
	probes := make([]int, total+1)
	for i := range probes {
		probes[i] = 280
		if i < loud {
			probes[i] = 400
		}
	}
	m := newWindowMeter(time.Second, clk.read, fakeProbe(probes...))
	lat := make([]float64, total)
	cpu := make([]time.Duration, total)
	for win := range lat {
		switch {
		case win < loud:
			lat[win], cpu[win] = 20, 20*time.Millisecond
		case win == loud || win == loud+3:
			lat[win], cpu[win] = 50, 30*time.Millisecond
		default:
			lat[win], cpu[win] = 5, 10*time.Millisecond
		}
	}
	script(clk, m, lat, cpu)
	prov := map[string]any{}
	got, err := endToEnd(&phase{meter: m}, workload{}, prov)
	if err != nil {
		t.Fatal(err)
	}
	// The quiet windows are the first five after the loud ones (ties keep
	// their order): 30 samples of 5 ms and 20 of 50.
	if prov["quiet_windows"] != 5 || prov["tail_percentile"] != 75.0 {
		t.Fatalf("quiet windows %v, tail p%v; want 5 and p75", prov["quiet_windows"], prov["tail_percentile"])
	}
	if v := got["latency_ms_tail"].Value; v != 50 {
		t.Errorf("p75 tail = %v ms, want 50 (the program's slow ops)", v)
	}
	if v := got["latency_ms_p50"].Value; v != 5 {
		t.Errorf("p50 = %v ms, want 5 (no contended window pooled)", v)
	}
	if v := got["cpu_ms_per_op"].Value; math.Abs(v-18) > 1e-9 {
		t.Errorf("quiet cpu/op = %v ms, want 18", v)
	}
}
