// Command perfbench is the repository's benchmark. One invocation sets up
// one workload, measures it for a fixed time and prints, as its last line,
// one JSON object with the outcome and every metric by name and unit:
//
//	bash perfbench/run.sh --workload sim-n1024 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run measures half its time untraced and half with spans around the
// public calls into each layer, and prints the per-layer metrics plus the
// tracing overhead. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// gomaxprocs is pinned so a figure means the same on hosts with different
// core counts. With one P the engine's vote loop stays sequential, so
// layer spans nest without overlapping.
const gomaxprocs = 1

// setupReps is how many times a run sets its workload up; setup_s is the
// median of the quietSetups of them with the lowest host scores.
const (
	setupReps   = 9
	quietSetups = 3
)

// windowEvery is the minimum length of a measurement window.
const windowEvery = 250 * time.Millisecond

// tailWant is the highest percentile reported as latency_ms_tail; fewer
// samples push it lower (see tailPercentile). It is p75 rather than p90
// because a p90 over the quiet windows still moves by a quarter with the few
// contended windows that score quiet.
const tailWant = 75

// quietShare is the share of a run's windows that the end-to-end metrics
// are taken over: those with the lowest host scores (see windowMeter.quiet).
// A tenth finds the quiet moments in runs a neighbour keeps busy for most
// of their length; a quarter did not.
const quietShare = 0.1

// phase is what one measurement pass over a set-up workload yields.
type phase struct {
	meter     *windowMeter // every completed op's latency
	attempted int
	failed    int
	layers    map[string]float64 // traced passes only
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for d, with layer spans when traced.
	measure(d time.Duration, traced bool) (*phase, error)
	// provenance names the workload parameters a reader needs to
	// reproduce the run.
	provenance() map[string]any
	Close() error
}

// workload describes one benchmark workload.
type workload struct {
	// openLoop marks a workload whose throughput the generator fixes; its
	// tracing overhead is read from CPU per op instead.
	openLoop bool
	// countsPerOp scales ops/s to the unit throughput_per_s counts (protocol
	// rounds for sim-n1024); zero means 1.
	countsPerOp float64
	setup       func(seed uint64) (instance, error)
}

var workloads = map[string]workload{
	"sim-n1024":   {countsPerOp: simRounds, setup: setupSim},
	"tables-f2":   {setup: setupTables},
	"service-tcp": {openLoop: true, setup: setupService},
}

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; a layer the workload never calls into reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.self_ms_per_op", "ms"},
	{"mobile.directives_us_per_round", "us"},
	{"mobile.consults_per_round", "count"},
	{"msr.apply_ms_per_op", "ms"},
	{"msr.applies_per_op", "count"},
	{"sweep.t0_ms", "ms"},
	{"sweep.table1_ms", "ms"},
	{"sweep.table2_ms", "ms"},
	{"sweep.f1_ms", "ms"},
	{"sweep.f2_ms", "ms"},
	{"sweep.f3_ms", "ms"},
	{"sweep.f4_ms", "ms"},
	{"sweep.f7_ms", "ms"},
	{"sweep.f8_ms", "ms"},
	{"service.submit_wait_us", "us"},
	{"service.overhead_ms", "ms"},
	{"service.frames_per_flush", "count"},
	{"service.flushes_per_op", "count"},
	{"service.drops_per_op", "count"},
	{"cluster.exec_ms", "ms"},
	{"cluster.omissions_per_op", "count"},
	{"cluster.late_per_op", "count"},
	{"transport.frames_per_write", "count"},
	{"transport.writes_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"loadgen.lag_ms_tail", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-n1024, tables-f2 or service-tcp")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (sim-n1024, tables-f2, service-tcp), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, prov, err := measureWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	prov["workload"] = *name
	prov["seed"] = *seed
	prov["fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	if err := printJSON(stdout, map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// measureWorkload sets the workload up and measures it: for d untraced,
// or with --trace 1 for d/2 untraced then d/2 traced.
func measureWorkload(w workload, seed uint64, d time.Duration, traced bool) (*result, map[string]any, error) {
	var setups []host
	setup := func() (instance, error) {
		before := hostProbe()
		start := processClock()
		in, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		end := processClock()
		setups = append(setups, host{probe: max(before, hostProbe()), wait: end.wait - start.wait, wall: end.at.Sub(start.at)})
		return in, nil
	}
	inst, err := setup()
	if err != nil {
		return nil, nil, err
	}
	var res *result
	var prov map[string]any
	if traced {
		res, prov, err = measureTraced(w, inst, d)
	} else {
		res, prov, err = measureUntraced(w, inst, d, func() error {
			// Collecting before and after keeps one segment's garbage out
			// of the next set-up and the set-up's out of the next segment,
			// so the peak resident set does not depend on GC timing.
			runtime.GC()
			defer runtime.GC()
			in, err := setup()
			if err != nil {
				return err
			}
			return in.Close()
		})
	}
	if cerr := inst.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	if !traced {
		var quiet, all []float64
		for _, h := range quietest(setups, func(h host) host { return h }, quietSetups) {
			quiet = append(quiet, h.wall.Seconds())
		}
		for _, h := range setups {
			all = append(all, h.wall.Seconds())
		}
		res.Metrics["setup_s"] = metric{median(quiet), "s"}
		prov["setup_s_reps"] = all
	}
	return res, prov, nil
}

// measureUntraced measures the end-to-end metrics. The run is cut into
// setupReps-1 segments with one more set-up after each, so the set-ups
// setup_s is taken from sample the host at moments spread over the run
// rather than in one burst.
func measureUntraced(w workload, inst instance, d time.Duration, setupAgain func() error) (*result, map[string]any, error) {
	segments := setupReps - 1
	p := &phase{meter: &windowMeter{}}
	for i := 0; i < segments; i++ {
		seg, err := inst.measure(d/time.Duration(segments), false)
		if err != nil {
			return nil, nil, err
		}
		p.meter.extend(seg.meter)
		p.attempted += seg.attempted
		p.failed += seg.failed
		if err := setupAgain(); err != nil {
			return nil, nil, err
		}
	}
	prov := provenance(inst)
	metrics, err := endToEnd(p, w, prov)
	if err != nil {
		return nil, nil, err
	}
	return newResult(metrics, p), prov, nil
}

// measureTraced measures the per-layer metrics: d/2 untraced, then d/2
// with spans, on the same instance.
func measureTraced(w workload, inst instance, d time.Duration) (*result, map[string]any, error) {
	plain, err := inst.measure(d/2, false)
	if err != nil {
		return nil, nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tp, err := inst.measure(d/2, true)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)

	ops := len(tp.meter.lat)
	layers := tp.layers
	layers["runtime.alloc_kb_per_op"] = perOp(float64(after.TotalAlloc-before.TotalAlloc)/1024, ops)
	layers["runtime.gc_cycles_per_op"] = perOp(float64(after.NumGC-before.NumGC), ops)
	quietPlain, quietTraced := plain.meter.quiet(quietShare), tp.meter.quiet(quietShare)
	if w.openLoop {
		layers["trace.overhead_pct"] = 100 * (quietTraced.cpuPerOp/quietPlain.cpuPerOp - 1)
	} else {
		layers["trace.overhead_pct"] = 100 * (1 - quietTraced.throughput/quietPlain.throughput)
	}
	metrics := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		metrics[l.name] = metric{layers[l.name], l.unit}
	}
	res := newResult(metrics, plain)
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.Correct = res.Failed == 0
	return res, provenance(inst), nil
}

func newResult(metrics map[string]metric, p *phase) *result {
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}
}

// endToEnd computes the metrics a user sees from one untraced pass, over
// the windows the host probe found quietest. The same figures over every
// window go to provenance.
func endToEnd(p *phase, w workload, prov map[string]any) (map[string]metric, error) {
	if len(p.meter.windows) == 0 {
		return nil, errors.New("no complete measurement window: raise --seconds")
	}
	scale := max(w.countsPerOp, 1)
	q := p.meter.quiet(quietShare)
	tp, beyond, ok := tailPercentile(len(q.lat), tailWant)
	if !ok {
		return nil, fmt.Errorf("%d samples leave fewer than %d beyond any tail percentile", len(q.lat), minBeyondTail)
	}
	all := p.meter.quiet(1)
	prov["windows"] = len(p.meter.windows)
	prov["quiet_windows"] = q.windows
	prov["samples"] = len(q.lat)
	prov["tail_percentile"] = tp
	prov["tail_samples_beyond"] = beyond
	prov["host_score_us"] = map[string]float64{
		"quiet_max": q.scoreMax / 1e3,
		"all_max":   all.scoreMax / 1e3,
	}
	prov["all_windows"] = map[string]float64{
		"throughput_per_s": all.throughput * scale,
		"cpu_ms_per_op":    all.cpuPerOp,
		"latency_ms_p50":   percentile(all.lat, 50),
		"latency_ms_tail":  percentile(all.lat, tp),
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak memory: %w", err)
	}
	return map[string]metric{
		"throughput_per_s": {q.throughput * scale, "1/s"},
		"latency_ms_p50":   {percentile(q.lat, 50), "ms"},
		"latency_ms_tail":  {percentile(q.lat, tp), "ms"},
		"cpu_ms_per_op":    {q.cpuPerOp, "ms"},
		"mem_peak_mb":      {peak, "MB"},
	}, nil
}

// provenance records the environment a figure was measured in.
func provenance(inst instance) map[string]any {
	prov := inst.provenance()
	prov["num_cpu"] = runtime.NumCPU()
	prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	prov["go_version"] = runtime.Version()
	prov["setup_reps"] = setupReps
	prov["mem_peak_counter"] = "VmHWM (peak resident set) of the benchmark process"
	prov["commit"] = commit()
	return prov
}

// commit names the source the benchmark was built from: the VCS revision
// stamped into the binary, followed by "+dirty" and the launcher's source
// digest when the working tree differed from that revision; outside a VCS
// checkout, the digest alone.
func commit() string {
	src := os.Getenv("PERFBENCH_SOURCE")
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	switch {
	case rev == "" && src == "":
		return "unknown"
	case rev == "":
		return src
	case dirty && src != "":
		return rev + "+dirty " + src
	case dirty:
		return rev + "+dirty"
	}
	return rev
}
