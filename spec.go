package mbfaa

import (
	"math"

	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// Spec is the resolved description of one protocol execution — the value
// the functional Options build. It is a plain, comparable-by-field struct
// so callers can construct specs directly, store them, diff them, and
// serialize them: every protocol-relevant field marshals to JSON, with
// algorithm and adversary selected by registered name. The three instance
// fields (Algorithm, Adversary, AdversaryFactory) and the trace recorder
// are process-local overrides excluded from serialization; a Spec round-
// tripped through JSON reproduces the same execution as long as it selects
// by name.
//
// The zero value is not runnable (no inputs); NewSpec applies the library
// defaults (model M1, ε = 1e-6, algorithm FTM, rotating adversary).
type Spec struct {
	// Model is the Mobile Byzantine Fault model (M1–M4). Zero means M1.
	Model Model `json:"model,omitempty"`
	// N and F are the process and agent counts. WithInputs infers N when
	// unset.
	N int `json:"n,omitempty"`
	F int `json:"f,omitempty"`
	// Inputs are the processes' initial values; len(Inputs) must equal N.
	Inputs []float64 `json:"inputs,omitempty"`
	// Epsilon is the agreement tolerance ε. Zero means 1e-6.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxRounds caps dynamic-halting runs (0: the core default, 1000).
	MaxRounds int `json:"max_rounds,omitempty"`
	// FixedRounds, when positive, runs exactly that many rounds.
	FixedRounds int `json:"fixed_rounds,omitempty"`
	// TrimOverride, when positive, replaces the model-prescribed τ (the
	// mobile-vs-static experiment's knob).
	TrimOverride int `json:"trim_override,omitempty"`
	// Seed fixes the run's random streams. In a batch it is only honoured
	// when ExplicitSeed is set (WithSeed sets both); otherwise the batch
	// derives the seed from (BatchOptions.Seed, spec index) — see DeriveSeed.
	Seed uint64 `json:"seed,omitempty"`
	// ExplicitSeed marks Seed as caller-chosen rather than derivable.
	ExplicitSeed bool `json:"explicit_seed,omitempty"`
	// InitialCured lists processes starting round 0 in the cured state.
	InitialCured []int `json:"initial_cured,omitempty"`
	// Checkers enables the Definition 4 / Lemma 5 / Theorem 1 runtime
	// checkers; the report lands in Result.Check.
	Checkers bool `json:"checkers,omitempty"`
	// AlgorithmName selects the MSR voting function by registered name
	// ("fta", "ftm", "dolev", "median"). Empty with a nil Algorithm means
	// FTM.
	AlgorithmName string `json:"algorithm,omitempty"`
	// AdversaryName selects a registered adversary by name (crash, greedy,
	// random, rotating, splitter, stationary). Empty with no instance or
	// factory means rotating.
	AdversaryName string `json:"adversary,omitempty"`
	// Label annotates batch errors and progress with the caller's context.
	Label string `json:"label,omitempty"`

	// Algorithm, when non-nil, overrides AlgorithmName with a concrete
	// voting function. Not serialized.
	Algorithm Algorithm `json:"-"`
	// Adversary, when non-nil, overrides AdversaryName with a concrete
	// instance. Stateful instances (splitter, greedy, mixed-mode) must be
	// fresh per run; RunBatch rejects one shared across specs.
	Adversary Adversary `json:"-"`
	// AdversaryFactory, when non-nil, takes precedence over Adversary and
	// AdversaryName: every run constructs a fresh adversary by calling it.
	// It is the only safe way to use a stateful adversary in a batch.
	AdversaryFactory func() Adversary `json:"-"`
	// Trace, when non-nil, receives the run's structured event trace. Not
	// serialized; must not be shared across batch specs.
	Trace *Recorder `json:"-"`
}

// NewSpec builds a Spec from functional options over the library defaults.
// It does not validate; Engine.Run and Spec.Validate do.
func NewSpec(opts ...Option) Spec {
	var s Spec
	for _, opt := range opts {
		opt(&s)
	}
	return s.withDefaults()
}

// withDefaults fills the zero-value fields the library defaults cover:
// model M1 and ε = 1e-6 (algorithm and adversary default at resolution
// time, MaxRounds in core).
func (s Spec) withDefaults() Spec {
	if s.Model == 0 {
		s.Model = M1
	}
	if s.Epsilon == 0 {
		s.Epsilon = 1e-6
	}
	return s
}

// Validate checks the spec eagerly, before any engine state is touched,
// and reports failures as *ConfigError values wrapping ErrSpec. Structural
// feasibility beyond these checks (initial-cured sets, trimming survival)
// is validated by the engine with the same strictness as always; sub-bound
// n stays legal (the lower-bound experiments need it).
func (s Spec) Validate() error {
	s = s.withDefaults()
	switch {
	case !s.Model.Valid():
		return configErrorf("Model", "unknown model %d", int(s.Model))
	case s.N <= 0:
		return configErrorf("N", "n=%d must be positive (set WithSystem or infer it via WithInputs)", s.N)
	case s.F < 0:
		return configErrorf("F", "f=%d must be non-negative", s.F)
	case s.F >= s.N:
		return configErrorf("F", "f=%d must be smaller than n=%d", s.F, s.N)
	case len(s.Inputs) != s.N:
		return configErrorf("Inputs", "WithInputs gave %d values but WithSystem set n=%d; they must agree",
			len(s.Inputs), s.N)
	case s.Epsilon <= 0 || math.IsNaN(s.Epsilon):
		return configErrorf("Epsilon", "epsilon %v must be positive", s.Epsilon)
	case s.MaxRounds < 0:
		return configErrorf("MaxRounds", "negative round cap %d", s.MaxRounds)
	case s.FixedRounds < 0:
		return configErrorf("FixedRounds", "negative fixed round count %d", s.FixedRounds)
	case s.TrimOverride < 0:
		return configErrorf("TrimOverride", "negative trim override %d", s.TrimOverride)
	}
	for i, v := range s.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return configErrorf("Inputs", "input %d is %v", i, v)
		}
	}
	if s.Algorithm == nil && s.AlgorithmName != "" {
		if _, err := msr.ByName(s.AlgorithmName); err != nil {
			return configErrorf("AlgorithmName", "%v", err)
		}
	}
	if s.AdversaryFactory == nil && s.Adversary == nil && s.AdversaryName != "" {
		if _, err := mobile.ByAdversaryName(s.AdversaryName); err != nil {
			return configErrorf("AdversaryName", "%v", err)
		}
	}
	return nil
}

// algorithm resolves the voting function: instance, then name, then the
// FTM default.
func (s Spec) algorithm() (Algorithm, error) {
	if s.Algorithm != nil {
		return s.Algorithm, nil
	}
	if s.AlgorithmName != "" {
		a, err := msr.ByName(s.AlgorithmName)
		if err != nil {
			return nil, configErrorf("AlgorithmName", "%v", err)
		}
		return a, nil
	}
	return FTM, nil
}

// adversaryFactory resolves the adversary as a constructor: factory, then
// instance (returned as-is on every call — only safe when the instance is
// used by a single run), then name, then the rotating default.
func (s Spec) adversaryFactory() (func() Adversary, error) {
	if s.AdversaryFactory != nil {
		return s.AdversaryFactory, nil
	}
	if s.Adversary != nil {
		inst := s.Adversary
		return func() Adversary { return inst }, nil
	}
	if s.AdversaryName != "" {
		factory, err := mobile.AdversaryFactoryByName(s.AdversaryName)
		if err != nil {
			return nil, configErrorf("AdversaryName", "%v", err)
		}
		return factory, nil
	}
	return func() Adversary { return mobile.NewRotating() }, nil
}

// config assembles the core configuration for one execution of the spec,
// constructing a fresh adversary. The spec must already be defaulted and
// validated.
func (s Spec) config() (core.Config, error) {
	algo, err := s.algorithm()
	if err != nil {
		return core.Config{}, err
	}
	factory, err := s.adversaryFactory()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Model:          s.Model,
		N:              s.N,
		F:              s.F,
		Algorithm:      algo,
		Adversary:      factory(),
		Inputs:         s.Inputs,
		Epsilon:        s.Epsilon,
		MaxRounds:      s.MaxRounds,
		FixedRounds:    s.FixedRounds,
		TrimOverride:   s.TrimOverride,
		Seed:           s.Seed,
		InitialCured:   s.InitialCured,
		EnableCheckers: s.Checkers,
		Recorder:       s.Trace,
	}, nil
}
