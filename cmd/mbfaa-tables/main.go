// Command mbfaa-tables regenerates every table and figure of the
// reproduction in one shot: T0 (the static mixed-mode substrate bound),
// the paper's Table 1 (mobile→mixed-mode fault mapping) and Table 2
// (replica bounds), and the derived figures F1 (convergence trajectories),
// F2 (rounds-to-ε vs n), F3 (algorithm ablation), F4 (mobile vs static),
// F7 (rounds vs tolerance) and F8 (seed robustness), and exits non-zero if
// any artifact deviates from the paper's prediction (README, "Command-line
// tools").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/prof"
	"mbfaa/internal/sweep"
)

// artifacts names every emittable table and figure, in emission order.
var artifacts = []string{"t0", "table1", "table2", "f1", "f2", "f3", "f4", "f7", "f8"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mbfaa-tables: ")

	var (
		f         = flag.Int("f", 2, "number of mobile Byzantine agents")
		seed      = flag.Uint64("seed", 1, "random seed")
		only      = flag.String("only", "", "emit a single artifact: "+strings.Join(artifacts, ", "))
		workers   = flag.Int("workers", 0, "worker pool size (0 = all cores); results are identical for any value")
		profFlags = prof.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	if *only != "" && !slices.Contains(artifacts, *only) {
		log.Fatalf("unknown artifact %q (have %s)", *only, strings.Join(artifacts, ", "))
	}

	// ^C cancels the artifact regeneration mid-grid: in-flight runs abort
	// at their next round boundary and the generators report the
	// cancellation as their error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The profiles cover the artifact regeneration; every exit after Start
	// flushes explicitly (log.Fatal skips defers, and an unflushed CPU
	// profile has no trailer and is unreadable by pprof).
	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	fatal := func(v ...any) {
		if perr := stopProf(); perr != nil {
			log.Print(perr)
		}
		log.Fatal(v...)
	}

	opt := sweep.DefaultOptions()
	opt.Seed = *seed
	opt.Workers = *workers
	opt.Ctx = ctx
	ok := true

	want := func(name string) bool { return *only == "" || *only == name }

	if want("t0") {
		t0, err := sweep.MixedModeBounds(2, 2, 2, msr.FTA{}, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t0.Render())
		ok = ok && t0.Ok()
	}

	if want("table1") {
		t1, err := sweep.Table1(*f, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t1.Render())
		ok = ok && t1.Ok()
	}

	if want("table2") {
		t2, err := sweep.Table2([]int{1, *f}, msr.FTA{}, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t2.Render())
		ok = ok && t2.Ok()
	}

	if want("f1") {
		fmt.Println("F1 — diameter vs round at n = n_Mi + 1 (splitter adversary, FTM)")
		for _, model := range mobile.AllModels() {
			tr, err := sweep.Trajectory(model, *f, msr.FTM{}, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Print(tr.Render())
			ok = ok && tr.Summary.ReachedEps
		}
		fmt.Println()
	}

	if want("f2") {
		for _, model := range mobile.AllModels() {
			rv, err := sweep.RoundsVsN(model, *f, 3**f, msr.FTM{}, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Print(rv.Render())
		}
		fmt.Println()
	}

	if want("f3") {
		ab, err := sweep.Ablation(*f, opt, msr.All())
		if err != nil {
			fatal(err)
		}
		fmt.Println(ab.Render())
		ok = ok && ab.GuaranteesHold()
	}

	if want("f4") {
		fmt.Println("F4 — mobile vs static faults at n = n_Mi (static arm: stationary agents, τ=f)")
		for _, model := range mobile.AllModels() {
			mv, err := sweep.MobileVsStatic(model, *f, msr.FTA{}, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Print(mv.Render())
			ok = ok && mv.Ok()
		}
		fmt.Println()
	}

	if want("f7") {
		fmt.Println("F7 — rounds vs tolerance (splitter adversary, FTM)")
		for _, model := range mobile.AllModels() {
			es, err := sweep.EpsilonSweep(model, *f, msr.FTM{}, 5, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Print(es.Render())
			ok = ok && es.WithinPrediction()
		}
		fmt.Println()
	}

	if want("f8") {
		fmt.Println("F8 — seed robustness (random adversary, 40 seeds)")
		for _, model := range mobile.AllModels() {
			sr, err := sweep.SeedRobustness(model, *f, 40, msr.FTM{}, opt)
			if err != nil {
				fatal(err)
			}
			fmt.Print(sr.Render())
			ok = ok && sr.Ok()
		}
		fmt.Println()
	}

	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	if !ok {
		fmt.Println("WARNING: at least one artifact deviates from the paper's predicted shape")
		os.Exit(1)
	}
	fmt.Println("all regenerated artifacts match the paper's predictions")
}
