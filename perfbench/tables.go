package main

import (
	"fmt"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/sweep"
)

// tables-f2: a closed loop whose op is one complete in-process regeneration
// of every mbfaa-tables artifact at f = 2, through the same internal/sweep
// generators and the same correctness verdicts the command applies.
const (
	tablesF       = 2
	tablesWorkers = 1
	tablesWarmup  = 5
)

// artifact regenerates one table or figure and reports whether it matches
// the paper's prediction.
type artifact struct {
	name string
	run  func(opt sweep.Options) (bool, error)
}

// perModel runs one generator per fault model; the artifact holds when it
// holds for all four.
func perModel(run func(m mobile.Model, opt sweep.Options) (bool, error)) func(sweep.Options) (bool, error) {
	return func(opt sweep.Options) (bool, error) {
		ok := true
		for _, m := range mobile.AllModels() {
			good, err := run(m, opt)
			if err != nil {
				return false, fmt.Errorf("%v: %w", m, err)
			}
			ok = ok && good
		}
		return ok, nil
	}
}

var artifacts = []artifact{
	{"t0", func(opt sweep.Options) (bool, error) {
		r, err := sweep.MixedModeBounds(2, 2, 2, msr.FTA{}, opt)
		return err == nil && r.Ok(), err
	}},
	{"table1", func(opt sweep.Options) (bool, error) {
		r, err := sweep.Table1(tablesF, opt)
		return err == nil && r.Ok(), err
	}},
	{"table2", func(opt sweep.Options) (bool, error) {
		r, err := sweep.Table2([]int{1, tablesF}, msr.FTA{}, opt)
		return err == nil && r.Ok(), err
	}},
	{"f1", perModel(func(m mobile.Model, opt sweep.Options) (bool, error) {
		r, err := sweep.Trajectory(m, tablesF, msr.FTM{}, opt)
		return err == nil && r.Summary.ReachedEps, err
	})},
	// mbfaa-tables renders F2 without a verdict; it passes when it runs.
	{"f2", perModel(func(m mobile.Model, opt sweep.Options) (bool, error) {
		_, err := sweep.RoundsVsN(m, tablesF, 3*tablesF, msr.FTM{}, opt)
		return err == nil, err
	})},
	{"f3", func(opt sweep.Options) (bool, error) {
		r, err := sweep.Ablation(tablesF, opt, msr.All())
		return err == nil && r.GuaranteesHold(), err
	}},
	{"f4", perModel(func(m mobile.Model, opt sweep.Options) (bool, error) {
		r, err := sweep.MobileVsStatic(m, tablesF, msr.FTA{}, opt)
		return err == nil && r.Ok(), err
	})},
	{"f7", perModel(func(m mobile.Model, opt sweep.Options) (bool, error) {
		r, err := sweep.EpsilonSweep(m, tablesF, msr.FTM{}, 5, opt)
		return err == nil && r.WithinPrediction(), err
	})},
	{"f8", perModel(func(m mobile.Model, opt sweep.Options) (bool, error) {
		r, err := sweep.SeedRobustness(m, tablesF, 40, msr.FTM{}, opt)
		return err == nil && r.Ok(), err
	})},
}

type tablesInstance struct {
	opt sweep.Options
}

func setupTables(seed uint64) (instance, error) {
	opt := sweep.DefaultOptions()
	opt.Seed = seed
	opt.Workers = tablesWorkers
	t := &tablesInstance{opt: opt}
	// Warm-up passes; every artifact must hold.
	for i := 0; i < tablesWarmup; i++ {
		if ok, err := t.pass(nil); err != nil || !ok {
			return nil, fmt.Errorf("warm-up pass %d: ok=%v err=%v", i, ok, err)
		}
	}
	return t, nil
}

// pass regenerates every artifact once, adding each generator's wall time
// to spans when non-nil.
func (t *tablesInstance) pass(spans map[string]time.Duration) (bool, error) {
	ok := true
	for _, a := range artifacts {
		start := time.Now()
		good, err := a.run(t.opt)
		if spans != nil {
			spans[a.name] += time.Since(start)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", a.name, err)
		}
		ok = ok && good
	}
	return ok, nil
}

func (t *tablesInstance) provenance() map[string]any {
	return map[string]any{"f": tablesF, "sweep_workers": tablesWorkers, "op": "one pass over T0, Table 1, Table 2, F1-F4, F7, F8"}
}

func (t *tablesInstance) Close() error { return nil }

func (t *tablesInstance) measure(d time.Duration, traced bool) (*phase, error) {
	var spans map[string]time.Duration
	if traced {
		spans = make(map[string]time.Duration, len(artifacts))
	}
	p := &phase{meter: newWindowMeter(windowEvery, processClock, hostProbe)}
	for start := time.Now(); time.Since(start) < d; {
		now := time.Now()
		ok, err := t.pass(spans)
		end := time.Now()
		p.attempted++
		if err != nil || !ok {
			p.failed++
		}
		p.meter.done(end, ms(end.Sub(now)))
	}
	if traced {
		p.layers = make(map[string]float64, len(spans))
		for name, total := range spans {
			p.layers["sweep."+name+"_ms"] = perOp(ms(total), p.attempted)
		}
	}
	return p, nil
}
