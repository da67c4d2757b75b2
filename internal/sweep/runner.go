package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
	"mbfaa/internal/trace"
)

// Job describes one protocol execution of an experiment grid. Generators
// (Table1, Table2, the figure sweeps) translate their parameter loops into
// Job slices and hand them to RunJobs; a Job therefore carries everything a
// run needs and nothing about when or where it executes.
type Job struct {
	// Model, N, F identify the fault model and system size.
	Model mobile.Model
	N, F  int
	// Algorithm is the MSR voting function.
	Algorithm msr.Algorithm
	// Adversary constructs the run's adversary. It is a constructor, not an
	// instance: stateful adversaries (splitter, greedy, mixed-mode) must be
	// fresh per execution, and sharing one instance across concurrently
	// running jobs would race.
	Adversary func() mobile.Adversary
	// Inputs are the processes' initial values (len == N).
	Inputs []float64
	// InitialCured lists processes starting round 0 cured (see core.Config).
	InitialCured []int
	// Epsilon overrides Options.Epsilon when non-zero.
	Epsilon float64
	// MaxRounds overrides Options.MaxRounds when non-zero.
	MaxRounds int
	// FixedRounds, when positive, runs exactly that many rounds.
	FixedRounds int
	// TrimOverride, when positive, replaces the model-prescribed τ.
	TrimOverride int
	// Seed fixes the run's PRNG seed when ExplicitSeed is true. Otherwise
	// the runner derives the seed from (Options.Seed, job index) — see
	// DeriveSeed — so a job's stream depends only on its position in the
	// slice, never on which worker runs it or in what order.
	Seed         uint64
	ExplicitSeed bool
	// OnRound, when non-nil, receives every round's snapshot. The callback
	// runs on the worker executing this job; it must not share mutable
	// state with other jobs' callbacks.
	OnRound func(core.RoundInfo)
	// EnableCheckers turns on the run's invariant checkers (see
	// core.Config.EnableCheckers); the report lands in the job's Result.
	EnableCheckers bool
	// Recorder, when non-nil, receives the run's structured event trace. It
	// must not be shared with another job: jobs run concurrently and the
	// recorder is not synchronized.
	Recorder *trace.Recorder
	// Label annotates errors with the generator's context.
	Label string
}

// config assembles the core.Config for the job at the given slice index.
func (j Job) config(index int, opt Options) core.Config {
	eps := j.Epsilon
	if eps == 0 {
		eps = opt.Epsilon
	}
	maxRounds := j.MaxRounds
	if maxRounds == 0 {
		maxRounds = opt.MaxRounds
	}
	seed := j.Seed
	if !j.ExplicitSeed {
		seed = DeriveSeed(opt.Seed, index)
	}
	return core.Config{
		Model:          j.Model,
		N:              j.N,
		F:              j.F,
		Algorithm:      j.Algorithm,
		Adversary:      j.Adversary(),
		Inputs:         j.Inputs,
		InitialCured:   j.InitialCured,
		Epsilon:        eps,
		MaxRounds:      maxRounds,
		FixedRounds:    j.FixedRounds,
		TrimOverride:   j.TrimOverride,
		Seed:           seed,
		OnRound:        j.OnRound,
		EnableCheckers: j.EnableCheckers,
		Recorder:       j.Recorder,
		Ctx:            opt.Ctx,
	}
}

// describe renders the job for error messages.
func (j Job) describe() string {
	algo := "?"
	if j.Algorithm != nil {
		algo = j.Algorithm.Name()
	}
	s := fmt.Sprintf("%v n=%d f=%d %s", j.Model, j.N, j.F, algo)
	if j.Label != "" {
		s = j.Label + " " + s
	}
	return s
}

// DeriveSeed maps (base, index) to the PRNG seed of the index-th job of a
// batch. The derivation reuses the prng package's labelled-stream primitive,
// so distinct indices get independent, well-mixed streams and the mapping is
// a pure function of its arguments — the cornerstone of the runner's
// worker-count invariance.
func DeriveSeed(base uint64, index int) uint64 {
	return prng.New(base).Derive(uint64(index)).Uint64()
}

// workerCount resolves Options.Workers against the job count.
func (o Options) workerCount(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunJobs executes every job on a bounded worker pool and returns the
// results in job order. The output is bit-identical for any worker count:
// each job's core.Config — including its PRNG seed — is a function of the
// job and its index alone, and the results slice is indexed, not appended.
// The first failing job (in job order, not completion order) determines the
// returned error; on error all jobs still run to completion.
// Each executor goroutine borrows one core.Runner from a pool shared by
// every RunJobs call, so consecutive jobs — also those of the next table
// or figure — recycle the engine's scratch buffers instead of reallocating
// the round state per run. Runner reuse cannot leak state between jobs:
// every Result is copied out of scratch, which the core golden suite
// asserts.
//
// When Options.Ctx is cancelled, jobs not yet started are skipped and
// in-flight runs abort at their next round boundary; every affected job
// records the context's error and RunJobs reports the first of them in job
// order, so errors.Is(err, context.Canceled) holds for the batch error.
func RunJobs(jobs []Job, opt Options) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := opt.workerCount(len(jobs))
	exec := func(r *core.Runner, i int) {
		switch {
		case opt.Ctx != nil && opt.Ctx.Err() != nil:
			// Skip, but still flow through the completion hook so progress
			// consumers see every index exactly once.
			errs[i] = opt.Ctx.Err()
		case jobs[i].Adversary == nil:
			errs[i] = fmt.Errorf("nil adversary constructor")
		default:
			results[i], errs[i] = r.Run(jobs[i].config(i, opt))
		}
		if opt.OnJobDone != nil {
			opt.OnJobDone(i, results[i], errs[i])
		}
	}

	if workers <= 1 {
		r := runners.Get().(*core.Runner)
		for i := range jobs {
			exec(r, i)
		}
		runners.Put(r)
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := runners.Get().(*core.Runner)
				defer runners.Put(r)
				for i := range next {
					exec(r, i)
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].describe(), err)
		}
	}
	return results, nil
}

// runners holds the Runners RunJobs lends its executors. A generator
// calls RunJobs once per table or figure, and a new Runner would allocate
// its buffers again each time.
var runners = sync.Pool{New: func() any { return core.NewRunner() }}

// runOne executes a single job as a batch of one. Generators with a single
// run (Trajectory, the arms of MobileVsStatic) use it so every execution,
// parallel or not, flows through the same seed derivation and config path.
func runOne(j Job, opt Options) (*core.Result, error) {
	res, err := RunJobs([]Job{j}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// splitterJob builds the standard worst-case job: splitter adversary with
// the paper's adversarial starting configuration (camps + initial cured).
func splitterJob(model mobile.Model, n, f int, algo msr.Algorithm, fixedRounds int) (Job, error) {
	layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
	if err != nil {
		return Job{}, err
	}
	return Job{
		Model:        model,
		N:            n,
		F:            f,
		Algorithm:    algo,
		Adversary:    func() mobile.Adversary { return mobile.NewSplitter() },
		Inputs:       layout.Inputs(n),
		InitialCured: layout.InitialCured(model, f),
		FixedRounds:  fixedRounds,
	}, nil
}
