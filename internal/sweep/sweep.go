// Package sweep is the experiment harness: it parameterizes, runs and
// renders every table and figure of the reproduction — Table 1 (fault
// mapping), Table 2 (replica bounds), and the derived figures F1–F4
// (convergence trajectory, rounds-vs-n, algorithm ablation, mobile-vs-
// static). cmd/mbfaa-tables and bench_test.go are thin wrappers over this
// package.
//
// # Parallel runner
//
// Every generator compiles its parameter loops into a []Job — one Job per
// protocol execution, carrying model, system size, algorithm, an adversary
// constructor and round limits — and hands the slice to RunJobs, which
// executes the jobs on a bounded worker pool (Options.Workers; default
// runtime.NumCPU()) and returns results in job order.
//
// Determinism is a hard requirement: a sweep's output must be bit-identical
// regardless of worker count or completion order. The runner guarantees it
// by construction:
//
//   - each job's PRNG seed is derived from (Options.Seed, job index) alone
//     (DeriveSeed), never from scheduling;
//   - adversaries are constructed fresh inside each run via the Job's
//     constructor, so no mutable state is shared across workers;
//   - results land in a slice indexed by job position, so collection order
//     cannot leak into the output.
//
// Consequently workers=1 is the sequential reference and any other worker
// count reproduces it byte-for-byte, which runner_test.go asserts for every
// generator.
package sweep

import (
	"context"
	"fmt"
	"math"
	"strings"

	"mbfaa/internal/analysis"
	"mbfaa/internal/core"
	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// Options carries the common experiment knobs. The zero value is NOT ready
// to use; call DefaultOptions.
type Options struct {
	// Epsilon is the agreement tolerance.
	Epsilon float64
	// MaxRounds caps every run.
	MaxRounds int
	// FreezeRounds is the fixed horizon used when demonstrating
	// non-convergence at the bound.
	FreezeRounds int
	// Seed feeds the runs' PRNG streams; each job's seed is derived from
	// (Seed, job index), see DeriveSeed.
	Seed uint64
	// Workers bounds the experiment runner's worker pool. 0 (the default)
	// means runtime.NumCPU(). Results are independent of the value.
	Workers int
	// Ctx, when non-nil, makes the whole batch cancellable: in-flight runs
	// abort at their next round boundary (core.Config.Ctx) and queued jobs
	// are skipped, each recording the context's error. RunJobs then reports
	// the first affected job's error, which satisfies
	// errors.Is(err, context.Canceled). Nil means the batch cannot be
	// cancelled. Cancellation only ever truncates a batch — it never
	// reorders or reseeds it, so completed prefixes remain bit-identical
	// to an uncancelled batch.
	Ctx context.Context
	// OnJobDone, when non-nil, is invoked once per job as it completes
	// (with its result or error), concurrently from the pool's worker
	// goroutines and in completion order, not job order. It must be safe
	// for concurrent use; batch progress reporting funnels it into a
	// channel.
	OnJobDone func(index int, res *core.Result, err error)
}

// DefaultOptions returns the parameters cmd/mbfaa-tables regenerates every
// artifact with.
func DefaultOptions() Options {
	return Options{Epsilon: 1e-3, MaxRounds: 400, FreezeRounds: 200, Seed: 1}
}

// ---------------------------------------------------------------------------
// Table 1 — mapping mobile fault states to Mixed-Mode classes.
// ---------------------------------------------------------------------------

// Table1Row records the observed behaviour classes for one model.
type Table1Row struct {
	Model mobile.Model
	// FaultyClasses and CuredClasses are the Mixed-Mode classes the
	// observation-matrix classifier assigned to the round's faulty and
	// cured senders.
	FaultyClasses, CuredClasses []mixedmode.Class
	// ExpectedCured is Table 1's prediction for the cured column.
	ExpectedCured mixedmode.Class
	// Match reports whether every observed class equals the prediction
	// (faulty → asymmetric; cured → the model's CuredClass).
	Match bool
}

// Table1Result is the reproduced Table 1.
type Table1Result struct {
	F    int
	Rows []Table1Row
}

// Table1 reproduces the paper's Table 1: it runs one adversarial round per
// model at n = RequiredN(f) with a cured cohort present, classifies every
// sender's behaviour from the observation matrix alone, and compares the
// classes against the mapping. The four model runs execute in parallel.
func Table1(f int, opt Options) (*Table1Result, error) {
	models := mobile.AllModels()
	jobs := make([]Job, 0, len(models))
	captured := make([]*core.RoundInfo, len(models))
	for i, model := range models {
		n := model.RequiredN(f)
		job, err := splitterJob(model, n, f, msr.FTA{}, 1)
		if err != nil {
			return nil, fmt.Errorf("sweep: table1 %v: %w", model, err)
		}
		job.Label = "table1"
		slot := &captured[i] // each job writes its own slot; no sharing
		job.OnRound = func(ri core.RoundInfo) {
			if ri.Round == 0 {
				*slot = &ri
			}
		}
		jobs = append(jobs, job)
	}
	if _, err := RunJobs(jobs, opt); err != nil {
		return nil, err
	}

	res := &Table1Result{F: f}
	for i, model := range models {
		row, err := table1Row(model, captured[i])
		if err != nil {
			return nil, fmt.Errorf("sweep: table1 %v: %w", model, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// table1Row classifies one model's captured round-0 snapshot.
func table1Row(model mobile.Model, captured *core.RoundInfo) (Table1Row, error) {
	if captured == nil {
		return Table1Row{}, fmt.Errorf("round 0 not captured")
	}
	var correctReceivers []int
	for i, s := range captured.SendStates {
		if s == mobile.StateCorrect {
			correctReceivers = append(correctReceivers, i)
		}
	}
	_, classes, err := captured.Matrix.Census(correctReceivers, captured.Expected)
	if err != nil {
		return Table1Row{}, err
	}

	row := Table1Row{Model: model, ExpectedCured: model.CuredClass(), Match: true}
	for i, s := range captured.SendStates {
		switch s {
		case mobile.StateFaulty:
			row.FaultyClasses = append(row.FaultyClasses, classes[i])
			if classes[i] != mixedmode.ClassAsymmetric {
				row.Match = false
			}
		case mobile.StateCured:
			row.CuredClasses = append(row.CuredClasses, classes[i])
			if classes[i] != row.ExpectedCured {
				row.Match = false
			}
		}
	}
	return row, nil
}

// Render formats the result in the paper's Table 1 layout.
func (t *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — behaviour of faulty and cured processes, observed (f=%d)\n", t.F)
	fmt.Fprintf(&b, "%-22s %-14s %-14s %s\n", "model", "faulty", "cured", "matches paper")
	for _, r := range t.Rows {
		cured := "(none at send)"
		if len(r.CuredClasses) > 0 {
			cured = r.CuredClasses[0].String()
		}
		faulty := "-"
		if len(r.FaultyClasses) > 0 {
			faulty = r.FaultyClasses[0].String()
		}
		fmt.Fprintf(&b, "%-22s %-14s %-14s %v\n", r.Model, faulty, cured, r.Match)
	}
	return b.String()
}

// Ok reports whether every row matched the paper's mapping.
func (t *Table1Result) Ok() bool {
	for _, r := range t.Rows {
		if !r.Match {
			return false
		}
	}
	return len(t.Rows) > 0
}

// ---------------------------------------------------------------------------
// Table 2 — replica bounds.
// ---------------------------------------------------------------------------

// Table2Cell is one (model, f, n) probe.
type Table2Cell struct {
	Model         mobile.Model
	N, F          int
	AboveBound    bool
	Converged     bool
	Rounds        int
	FinalDiameter float64
}

// Table2Result is the reproduced Table 2: empirical solvability around each
// model's threshold.
type Table2Result struct {
	Algorithm string
	Cells     []Table2Cell
}

// Table2 sweeps n from the bound to bound+2f for every model and the given
// fault counts, under the splitter adversary; the grid's cells run in
// parallel. The expected shape: frozen diameter at n = bound, convergence
// for every n > bound.
func Table2(fs []int, algo msr.Algorithm, opt Options) (*Table2Result, error) {
	var jobs []Job
	for _, model := range mobile.AllModels() {
		for _, f := range fs {
			bound := model.Bound(f)
			for n := bound; n <= bound+2*f; n++ {
				fixed := 0
				if n <= bound {
					fixed = opt.FreezeRounds
				}
				job, err := splitterJob(model, n, f, algo, fixed)
				if err != nil {
					return nil, fmt.Errorf("sweep: table2 %v n=%d f=%d: %w", model, n, f, err)
				}
				job.Label = "table2"
				jobs = append(jobs, job)
			}
		}
	}
	results, err := RunJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Algorithm: algo.Name()}
	for i, r := range results {
		j := jobs[i]
		res.Cells = append(res.Cells, Table2Cell{
			Model:         j.Model,
			N:             j.N,
			F:             j.F,
			AboveBound:    j.N > j.Model.Bound(j.F),
			Converged:     r.Converged,
			Rounds:        r.Rounds,
			FinalDiameter: r.FinalDiameter(),
		})
	}
	return res, nil
}

// Ok reports whether the sweep matches the paper: convergence iff above the
// bound.
func (t *Table2Result) Ok() bool {
	if len(t.Cells) == 0 {
		return false
	}
	for _, c := range t.Cells {
		if c.Converged != c.AboveBound {
			return false
		}
	}
	return true
}

// Render formats the sweep as a matrix of ✓ (converged) and ✗ per model.
func (t *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — replica bounds, empirical (%s, splitter adversary)\n", t.Algorithm)
	fmt.Fprintf(&b, "%-22s %3s %4s %6s %10s %8s %s\n", "model", "f", "n", "n>nMi", "converged", "rounds", "final diameter")
	for _, c := range t.Cells {
		mark := "no"
		if c.Converged {
			mark = "yes"
		}
		fmt.Fprintf(&b, "%-22s %3d %4d %6v %10s %8d %g\n",
			c.Model, c.F, c.N, c.AboveBound, mark, c.Rounds, c.FinalDiameter)
	}
	fmt.Fprintf(&b, "bounds confirmed: %v\n", t.Ok())
	return b.String()
}

// ---------------------------------------------------------------------------
// F1 — convergence trajectory.
// ---------------------------------------------------------------------------

// TrajectoryResult is one diameter-vs-round series (figure F1).
type TrajectoryResult struct {
	Model     mobile.Model
	N, F      int
	Algorithm string
	Series    analysis.Series
	Summary   analysis.Summary
}

// Trajectory records the diameter trajectory at n = RequiredN(f) under the
// splitter adversary.
func Trajectory(model mobile.Model, f int, algo msr.Algorithm, opt Options) (*TrajectoryResult, error) {
	n := model.RequiredN(f)
	job, err := splitterJob(model, n, f, algo, 0)
	if err != nil {
		return nil, err
	}
	job.Label = "f1"
	r, err := runOne(job, opt)
	if err != nil {
		return nil, err
	}
	series := analysis.Series(r.DiameterSeries)
	sum, err := analysis.Summarize(series, opt.Epsilon)
	if err != nil {
		return nil, err
	}
	return &TrajectoryResult{
		Model: model, N: n, F: f, Algorithm: algo.Name(),
		Series: series, Summary: sum,
	}, nil
}

// Render formats the trajectory with a sparkline.
func (t *TrajectoryResult) Render() string {
	return fmt.Sprintf("F1 %s n=%d f=%d %s: rounds=%d worst-step=%.3f mean-step=%.3f  %s\n",
		t.Model.Short(), t.N, t.F, t.Algorithm,
		t.Summary.Rounds, t.Summary.WorstContraction, t.Summary.MeanContraction,
		analysis.Sparkline(t.Series))
}

// ---------------------------------------------------------------------------
// F2 — rounds-to-ε vs n.
// ---------------------------------------------------------------------------

// RoundsVsNPoint is one (n, rounds) sample.
type RoundsVsNPoint struct {
	N         int
	Rounds    int
	Converged bool
}

// RoundsVsNResult is figure F2 for one model.
type RoundsVsNResult struct {
	Model     mobile.Model
	F         int
	Algorithm string
	Points    []RoundsVsNPoint
}

// RoundsVsN sweeps n from RequiredN(f) upward `width` steps in parallel and
// records the rounds needed to reach ε under the splitter adversary.
func RoundsVsN(model mobile.Model, f, width int, algo msr.Algorithm, opt Options) (*RoundsVsNResult, error) {
	start := model.RequiredN(f)
	jobs := make([]Job, 0, width)
	for n := start; n < start+width; n++ {
		job, err := splitterJob(model, n, f, algo, 0)
		if err != nil {
			return nil, err
		}
		job.Label = "f2"
		jobs = append(jobs, job)
	}
	results, err := RunJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	res := &RoundsVsNResult{Model: model, F: f, Algorithm: algo.Name()}
	for i, r := range results {
		res.Points = append(res.Points, RoundsVsNPoint{N: jobs[i].N, Rounds: r.Rounds, Converged: r.Converged})
	}
	return res, nil
}

// Render formats the figure as an n → rounds table.
func (r *RoundsVsNResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F2 %s f=%d %s: rounds to ε vs n\n", r.Model.Short(), r.F, r.Algorithm)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  n=%-4d rounds=%-4d converged=%v\n", p.N, p.Rounds, p.Converged)
	}
	return b.String()
}

// Monotone reports whether rounds-to-ε never increases as n grows — the
// shape the figure must exhibit.
func (r *RoundsVsNResult) Monotone() bool {
	for i := 1; i < len(r.Points); i++ {
		if !r.Points[i].Converged || r.Points[i].Rounds > r.Points[i-1].Rounds {
			return false
		}
	}
	return len(r.Points) > 0
}

// ---------------------------------------------------------------------------
// F3 — algorithm ablation under the greedy adversary.
// ---------------------------------------------------------------------------

// AblationRow is one (model, algorithm) measurement.
type AblationRow struct {
	Model     mobile.Model
	Algorithm string
	// Guaranteed is the algorithm's theoretical contraction bound (NaN if
	// none, as for Median).
	Guaranteed float64
	// WorstObserved is the worst per-round contraction the greedy
	// adversary achieved.
	WorstObserved float64
	Converged     bool
	Rounds        int
}

// AblationResult is figure F3.
type AblationResult struct {
	F    int
	Rows []AblationRow
}

// Ablation measures every algorithm (including the Median negative control)
// under the greedy adversary at n = RequiredN(f); the model × algorithm
// grid runs in parallel.
func Ablation(f int, opt Options, algos []msr.Algorithm) (*AblationResult, error) {
	var jobs []Job
	for _, model := range mobile.AllModels() {
		n := model.RequiredN(f)
		for _, algo := range algos {
			layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, Job{
				Model:        model,
				N:            n,
				F:            f,
				Algorithm:    algo,
				Adversary:    func() mobile.Adversary { return mobile.NewGreedy() },
				Inputs:       layout.Inputs(n),
				InitialCured: layout.InitialCured(model, f),
				Label:        "f3",
			})
		}
	}
	results, err := RunJobs(jobs, opt)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{F: f}
	for i, r := range results {
		j := jobs[i]
		row := AblationRow{
			Model:     j.Model,
			Algorithm: j.Algorithm.Name(),
			Converged: r.Converged,
			Rounds:    r.Rounds,
		}
		m := j.N
		if j.Model == mobile.M1Garay {
			m = j.N - j.F
		}
		if g, ok := j.Algorithm.Contraction(m, j.Model.Trim(j.F), j.Model.AsymmetricSenders(j.F)); ok {
			row.Guaranteed = g
		} else {
			row.Guaranteed = math.NaN()
		}
		if w, err := analysis.Series(r.DiameterSeries).WorstContraction(); err == nil {
			row.WorstObserved = w
		} else {
			row.WorstObserved = math.NaN()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the ablation table.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F3 — contraction per algorithm under the greedy adversary (f=%d, n=n_Mi+1)\n", a.F)
	fmt.Fprintf(&b, "%-22s %-8s %12s %14s %10s %7s\n", "model", "algo", "guaranteed", "worst observed", "converged", "rounds")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-22s %-8s %12.4f %14.4f %10v %7d\n",
			r.Model, r.Algorithm, r.Guaranteed, r.WorstObserved, r.Converged, r.Rounds)
	}
	return b.String()
}

// GuaranteesHold reports whether no convergent algorithm's observed worst
// step exceeded its guaranteed factor (with numerical slack).
func (a *AblationResult) GuaranteesHold() bool {
	for _, r := range a.Rows {
		if math.IsNaN(r.Guaranteed) {
			continue
		}
		if !math.IsNaN(r.WorstObserved) && r.WorstObserved > r.Guaranteed+1e-9 {
			return false
		}
	}
	return len(a.Rows) > 0
}

// ---------------------------------------------------------------------------
// F4 — mobile vs static faults.
// ---------------------------------------------------------------------------

// MobileVsStaticResult contrasts static and mobile faults on the same
// system size n = Bound(f): the static arm runs the static-fault-calibrated
// protocol (τ = f, stationary agents, a classical n > 3f setting) and
// converges for M1–M3, while the mobile arm (model trim, splitter schedule)
// freezes. For M4 both arms freeze: Buhrman's bound 3f equals the static
// bound, i.e. mobility is free in that model — exactly Table 2's structure.
type MobileVsStaticResult struct {
	Model                    mobile.Model
	N, F                     int
	StaticConverged          bool
	StaticRounds             int
	StaticFinalDiameter      float64
	MobileConverged          bool
	MobileFinalDiameter      float64
	MobileDiameterTrajectory analysis.Series
	// GapExpected is true for M1–M3, where the mobile bound strictly
	// exceeds the static 3f+1 requirement.
	GapExpected bool
	// GapDemonstrated reports static-converged ∧ mobile-frozen.
	GapDemonstrated bool
}

// MobileVsStatic runs the comparison for one model; the two arms run in
// parallel.
func MobileVsStatic(model mobile.Model, f int, algo msr.Algorithm, opt Options) (*MobileVsStaticResult, error) {
	n := model.Bound(f)
	res := &MobileVsStaticResult{
		Model: model, N: n, F: f,
		GapExpected: n > 3*f,
	}

	layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
	if err != nil {
		return nil, err
	}
	staticJob := Job{
		Model:        model,
		N:            n,
		F:            f,
		Algorithm:    algo,
		Adversary:    func() mobile.Adversary { return mobile.NewStationary() },
		Inputs:       layout.Inputs(n),
		TrimOverride: f, // static protocol: τ covers the f static faults
		FixedRounds:  fixedIf(!res.GapExpected, opt.FreezeRounds),
		Label:        "f4-static",
	}
	mobileJob, err := splitterJob(model, n, f, algo, opt.FreezeRounds)
	if err != nil {
		return nil, err
	}
	mobileJob.Label = "f4-mobile"

	results, err := RunJobs([]Job{staticJob, mobileJob}, opt)
	if err != nil {
		return nil, err
	}
	stat, mob := results[0], results[1]
	res.StaticConverged = stat.Converged
	res.StaticRounds = stat.Rounds
	res.StaticFinalDiameter = stat.FinalDiameter()
	res.MobileConverged = mob.Converged
	res.MobileFinalDiameter = mob.FinalDiameter()
	res.MobileDiameterTrajectory = mob.DiameterSeries
	res.GapDemonstrated = res.StaticConverged && !res.MobileConverged
	return res, nil
}

// fixedIf returns rounds when cond is true, else 0 (dynamic halting).
func fixedIf(cond bool, rounds int) int {
	if cond {
		return rounds
	}
	return 0
}

// Ok reports whether the comparison matches the paper's structure: a gap
// for M1–M3, none for M4 (both arms frozen).
func (m *MobileVsStaticResult) Ok() bool {
	if m.MobileConverged {
		return false // the splitter must freeze at the bound
	}
	return m.StaticConverged == m.GapExpected
}

// Render formats the comparison.
func (m *MobileVsStaticResult) Render() string {
	return fmt.Sprintf(
		"F4 %s n=%d f=%d: static(τ=f) converged=%v (rounds=%d, diam=%g); mobile converged=%v (diam=%g) — gap expected=%v shown=%v\n",
		m.Model.Short(), m.N, m.F,
		m.StaticConverged, m.StaticRounds, m.StaticFinalDiameter,
		m.MobileConverged, m.MobileFinalDiameter, m.GapExpected, m.GapDemonstrated)
}
