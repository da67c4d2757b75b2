package mbfaa

import (
	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/trace"
)

// Re-exported vocabulary. The facade aliases the internal types so advanced
// callers can mix facade options with internal constructors.
type (
	// Model is one of the four Mobile Byzantine Fault models.
	Model = mobile.Model
	// Algorithm is an MSR voting function.
	Algorithm = msr.Algorithm
	// Adversary controls agent placement and Byzantine behaviour: it
	// places the agents, sets the state a departing agent leaves behind,
	// and scripts each round's faulty sends in one RoundDirectives call.
	Adversary = mobile.Adversary
	// PairAdversary is the per-pair form of an adversary, answering one
	// (sender, receiver) pair per FaultyValue or QueueValue call.
	// AdaptAdversary lifts it to an Adversary.
	PairAdversary = mobile.PairAdversary
	// RoundAdversary is Adversary under its former name, kept so that
	// existing callers still compile.
	//
	// Deprecated: use Adversary.
	RoundAdversary = mobile.Adversary
	// RoundView is RoundDirectives' argument: the omniscient View plus the
	// round's faulty and cured sender sets.
	RoundView = mobile.RoundView
	// Directives is the per-round adversarial send script an Adversary
	// fills: one value-or-omission entry per (scripted sender, receiver).
	Directives = mobile.Directives
	// Result is a completed execution.
	Result = core.Result
	// Recorder captures a structured execution trace.
	Recorder = trace.Recorder
)

// AdaptAdversary lifts a per-pair adversary to an Adversary. The adapter
// asks the per-pair methods for every scripted entry in a pinned order —
// senders ascending, receivers ascending within each sender — so seeded
// runs replay, and a NaN answer is an omission.
func AdaptAdversary(a PairAdversary) Adversary { return mobile.Adapt(a) }

// The four models, in paper order.
const (
	M1 = mobile.M1Garay
	M2 = mobile.M2Bonnet
	M3 = mobile.M3Sasaki
	M4 = mobile.M4Buhrman
)

// Algorithm constructors.
var (
	// FTA is the fault-tolerant average (trimmed mean).
	FTA Algorithm = msr.FTA{}
	// FTM is the fault-tolerant midpoint.
	FTM Algorithm = msr.FTM{}
	// Dolev is the select-every-τ averaging of Dolev et al.
	Dolev Algorithm = msr.DolevSelect{}
	// Median is the non-convergent negative control.
	Median Algorithm = msr.Median{}
)

// NewTrace returns an empty execution trace recorder for WithTrace.
func NewTrace() *Recorder { return trace.New() }

// Option configures a Spec. Options apply in order with last-wins
// semantics; NewSpec collects them over the library defaults.
type Option func(*Spec)

// WithModel selects the fault model. Default: M1.
func WithModel(m Model) Option { return func(s *Spec) { s.Model = m } }

// WithSystem sets the process count n and agent count f.
func WithSystem(n, f int) Option {
	return func(s *Spec) { s.N, s.F = n, f }
}

// WithInputs sets the initial values; their count fixes n unless WithSystem
// overrides it.
func WithInputs(values ...float64) Option {
	return func(s *Spec) {
		s.Inputs = append([]float64(nil), values...)
		if s.N == 0 {
			s.N = len(values)
		}
	}
}

// WithEpsilon sets the agreement tolerance ε. Default: 1e-6.
func WithEpsilon(eps float64) Option { return func(s *Spec) { s.Epsilon = eps } }

// WithAlgorithm selects the MSR voting function. Default: FTM.
func WithAlgorithm(a Algorithm) Option { return func(s *Spec) { s.Algorithm = a } }

// WithAdversary installs a concrete adversary instance. Stateful
// adversaries (splitter, greedy) must be fresh per run — RunBatch rejects
// an instance shared across specs; use WithAdversaryFactory there.
// Default: rotating.
func WithAdversary(a Adversary) Option {
	return func(s *Spec) {
		s.Adversary = a
		s.AdversaryFactory = nil
		s.AdversaryName = ""
	}
}

// WithAdversaryFactory installs an adversary constructor: every run of the
// spec calls it for a fresh instance, which makes stateful adversaries
// safe in batches (it mirrors the internal sweep harness's per-job
// constructor).
func WithAdversaryFactory(factory func() Adversary) Option {
	return func(s *Spec) {
		s.AdversaryFactory = factory
		s.Adversary = nil
		s.AdversaryName = ""
	}
}

// WithAdversaryName installs a registered adversary by name
// (crash, greedy, random, rotating, splitter, stationary). Name selection
// is batch-safe: every run constructs its own instance.
func WithAdversaryName(name string) Option {
	return func(s *Spec) {
		s.AdversaryName = name
		s.Adversary = nil
		s.AdversaryFactory = nil
	}
}

// WithSeed pins the run's random streams. In a batch a pinned seed is used
// verbatim; specs without one derive theirs from (BatchOptions.Seed, spec
// index) — see DeriveSeed. Default: 0 for single runs.
func WithSeed(seed uint64) Option {
	return func(s *Spec) { s.Seed, s.ExplicitSeed = seed, true }
}

// WithMaxRounds caps the execution. Default: core.DefaultMaxRounds.
func WithMaxRounds(r int) Option { return func(s *Spec) { s.MaxRounds = r } }

// WithFixedRounds runs exactly r rounds instead of halting on diameter.
func WithFixedRounds(r int) Option { return func(s *Spec) { s.FixedRounds = r } }

// WithCheckers enables the Definition 4 / Lemma 5 / Theorem 1 runtime
// checkers; the report lands in Result.Check.
func WithCheckers() Option { return func(s *Spec) { s.Checkers = true } }

// WithTrace attaches a structured event recorder.
func WithTrace(rec *Recorder) Option { return func(s *Spec) { s.Trace = rec } }

// WithInitialCured marks processes as cured at round 0 (the lower-bound
// starting configurations).
func WithInitialCured(ids ...int) Option {
	return func(s *Spec) { s.InitialCured = append([]int(nil), ids...) }
}

// WithLabel annotates the spec for batch error messages and progress
// reporting.
func WithLabel(label string) Option { return func(s *Spec) { s.Label = label } }

// Run executes one approximate-agreement instance and returns its Result.
// It is the legacy one-shot entry point, kept as a thin wrapper: it builds
// the Spec the options describe and executes it on the package's default
// Engine (so even one-shot callers recycle pooled runners) without a
// cancellation context. New code that runs more than once, needs
// cancellation, round streaming or batches should hold an Engine and use
// Run/Stream/RunBatch on it with an explicit Spec.
func Run(opts ...Option) (*Result, error) {
	return defaultEngine.Run(nil, NewSpec(opts...))
}

// RequiredN returns the minimal number of processes solving Approximate
// Agreement with f agents under the model (Table 2): 4f+1, 5f+1, 6f+1,
// 3f+1.
func RequiredN(m Model, f int) int { return m.RequiredN(f) }

// MaxFaulty returns the largest agent count n processes tolerate under the
// model.
func MaxFaulty(m Model, n int) int { return m.MaxFaulty(n) }

// AlgorithmByName resolves "fta", "ftm", "dolev" or "median".
func AlgorithmByName(name string) (Algorithm, error) { return msr.ByName(name) }

// AdversaryByName resolves a registered adversary name to a fresh instance.
func AdversaryByName(name string) (Adversary, error) { return mobile.ByAdversaryName(name) }

// AdversaryFactoryByName resolves a registered adversary name to a
// constructor, the batch-safe form: every call yields a fresh instance.
func AdversaryFactoryByName(name string) (func() Adversary, error) {
	return mobile.AdversaryFactoryByName(name)
}

// Models returns the four models in paper order.
func Models() []Model { return mobile.AllModels() }

// CheckSystem validates an (n, f, model) combination. It returns nil when
// n exceeds the model's bound, and a *BoundError (wrapping ErrBelowBound)
// explaining the bound when it does not.
func CheckSystem(m Model, n, f int) error {
	return mobile.CheckSystem(m, n, f)
}

// WorstCase returns the paper's worst-case setup for an (n, f, model)
// system on the value interval [lo, hi]: a fresh splitter adversary (the
// two-camp strategy behind the lower-bound theorems), the matching
// adversarial input assignment, and the initial cured set of the
// lower-bound starting configuration. Feed all three into Run to reproduce
// the Table 2 boundary behaviour: frozen diameter at n = bound, worst-case
// convergence above it.
func WorstCase(m Model, n, f int, lo, hi float64) (Adversary, []float64, []int, error) {
	layout, err := mobile.SplitterLayout(m, n, f, lo, hi)
	if err != nil {
		return nil, nil, nil, err
	}
	return mobile.NewSplitter(), layout.Inputs(n), layout.InitialCured(m, f), nil
}

// WorstCaseSpec assembles the full worst-case Spec in one call: WorstCase's
// adversary (as a factory, so the spec is batch-safe), inputs and initial
// cured set, on the given model and system size.
func WorstCaseSpec(m Model, n, f int, lo, hi float64) (Spec, error) {
	layout, err := mobile.SplitterLayout(m, n, f, lo, hi)
	if err != nil {
		return Spec{}, err
	}
	return NewSpec(
		WithModel(m),
		WithSystem(n, f),
		WithInputs(layout.Inputs(n)...),
		WithInitialCured(layout.InitialCured(m, f)...),
		WithAdversaryFactory(func() Adversary { return mobile.NewSplitter() }),
	), nil
}
