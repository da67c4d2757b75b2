// Package core implements the paper's contribution: MSR approximate
// agreement running under the four Mobile Byzantine Fault models, with the
// round structure of §3 (send, receive, compute; agents moving between
// rounds or with messages), the configuration formalism of §5.1
// (Definitions 4–10), and runtime checkers for Lemma 5, Observation 1 and
// the Theorem 1 mobile→static equivalence.
//
// One deterministic engine runs the round semantics (Run and Runner.Run):
// the same Config always produces a bit-identical Result, which the golden
// digest suite asserts. Real message passing between processes lives in
// internal/cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/trace"
)

// Default limits applied by Config.withDefaults.
const (
	// DefaultMaxRounds caps dynamic-halting runs; a run that has not
	// converged by then reports Converged=false (the lower-bound
	// experiments rely on hitting this cap).
	DefaultMaxRounds = 1000
)

// Config describes one protocol execution.
type Config struct {
	// Model is the Mobile Byzantine Fault model in force.
	Model mobile.Model
	// N is the number of processes; F the number of Byzantine agents.
	N, F int
	// Algorithm is the MSR voting function applied each round.
	Algorithm msr.Algorithm
	// Adversary controls agent placement and Byzantine behaviour.
	// Stateful adversaries must be fresh per run.
	Adversary mobile.Adversary
	// Inputs are the processes' initial values; len(Inputs) must equal N.
	Inputs []float64
	// Epsilon is the agreement tolerance ε (> 0).
	Epsilon float64
	// MaxRounds caps the execution under dynamic halting. 0 means
	// DefaultMaxRounds.
	MaxRounds int
	// FixedRounds, when positive, runs exactly that many rounds and
	// ignores the dynamic diameter-based halting rule.
	FixedRounds int
	// Seed drives every random choice (randomized adversaries, workload
	// jitter). Identical (Config, Seed) pairs replay identically.
	Seed uint64
	// TrimOverride, when positive, replaces the model-prescribed trim
	// parameter τ. The mobile-vs-static experiment (F4) uses it to run the
	// static-fault-calibrated protocol (τ = f) against a stationary
	// adversary on the same system size. 0 means the model default.
	TrimOverride int
	// InitialCured lists processes that start round 0 in the cured state,
	// with their Inputs entry as the (corrupted) stored value. The paper's
	// lower-bound constructions (Theorems 3–4) start from configurations
	// with cured processes already present — per Observation 2, an
	// execution whose first round has f faulty and no cured behaves like
	// the static case and may legitimately contract once. Invalid for M4,
	// which has no cured state at send time. Processes also chosen by the
	// adversary's round-0 placement become faulty instead.
	InitialCured []int
	// EnableCheckers turns on the per-round Definition 4 / Lemma 5 /
	// Theorem 1 invariant checkers. They are meaningful when n exceeds
	// the model bound; below it, violations are expected and recorded.
	EnableCheckers bool
	// Recorder, when non-nil, receives a structured event trace.
	Recorder *trace.Recorder
	// OnRound, when non-nil, is invoked after every round's computation
	// phase with a full snapshot. Its observation matrix is materialized
	// from the round's kernel plan; the votes are the kernel's either way.
	// It is the hook the Table 1 experiment uses to classify behaviour.
	OnRound func(RoundInfo)
	// Ctx, when non-nil, makes the run cancellable: the engine checks it
	// once per round boundary and aborts with the context's error (wrapping
	// context.Canceled / context.DeadlineExceeded). The check happens only
	// between rounds — never mid-round — so the steady-state round loop
	// stays allocation-free. A nil Ctx means the run
	// cannot be cancelled; it is NOT defaulted to context.Background, so
	// the hot path pays a single pointer test.
	Ctx context.Context
}

// ErrConfig wraps all configuration validation failures.
var ErrConfig = errors.New("core: invalid config")

// Tau returns the trim parameter the protocol uses: the model-prescribed
// reduction covering every possibly-erroneous value, unless TrimOverride
// is set.
func (c Config) Tau() int {
	if c.TrimOverride > 0 {
		return c.TrimOverride
	}
	return c.Model.Trim(c.F)
}

// Validate checks the configuration. Sub-bound n is allowed (the
// lower-bound experiments need it); structurally infeasible trimming — a
// round in which no value could survive reduction even with every process
// sending — is not.
func (c Config) Validate() error {
	switch {
	case !c.Model.Valid():
		return fmt.Errorf("%w: unknown model %d", ErrConfig, int(c.Model))
	case c.N <= 0:
		return fmt.Errorf("%w: n=%d must be positive", ErrConfig, c.N)
	case c.F < 0:
		return fmt.Errorf("%w: f=%d must be non-negative", ErrConfig, c.F)
	case c.F >= c.N:
		return fmt.Errorf("%w: f=%d must be smaller than n=%d", ErrConfig, c.F, c.N)
	case c.Algorithm == nil:
		return fmt.Errorf("%w: nil algorithm", ErrConfig)
	case c.Adversary == nil:
		return fmt.Errorf("%w: nil adversary", ErrConfig)
	case len(c.Inputs) != c.N:
		return fmt.Errorf("%w: %d inputs for n=%d processes", ErrConfig, len(c.Inputs), c.N)
	case c.Epsilon <= 0 || math.IsNaN(c.Epsilon):
		return fmt.Errorf("%w: epsilon %v must be positive", ErrConfig, c.Epsilon)
	case c.MaxRounds < 0 || c.FixedRounds < 0:
		return fmt.Errorf("%w: negative round limits", ErrConfig)
	case c.TrimOverride < 0:
		return fmt.Errorf("%w: negative trim override %d", ErrConfig, c.TrimOverride)
	}
	for i, v := range c.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: input %d is %v", ErrConfig, i, v)
		}
	}
	if len(c.InitialCured) > 0 && c.Model == mobile.M4Buhrman {
		return fmt.Errorf("%w: M4 has no cured processes at send time", ErrConfig)
	}
	seenCured := make(map[int]bool, len(c.InitialCured))
	for _, p := range c.InitialCured {
		if p < 0 || p >= c.N {
			return fmt.Errorf("%w: initial cured %d out of range [0,%d)", ErrConfig, p, c.N)
		}
		if seenCured[p] {
			return fmt.Errorf("%w: duplicate initial cured %d", ErrConfig, p)
		}
		seenCured[p] = true
	}
	if len(c.InitialCured) > c.F {
		return fmt.Errorf("%w: %d initial cured exceeds f=%d (at most f agents departed)",
			ErrConfig, len(c.InitialCured), c.F)
	}
	// Full participation must leave at least one survivor after trimming.
	minReceived := c.N
	if c.Model == mobile.M1Garay {
		minReceived = c.N - c.F // cured processes are silent
	}
	if minReceived-2*c.Tau() < 1 {
		return fmt.Errorf("%w: n=%d f=%d under %v leaves no survivors after trimming τ=%d",
			ErrConfig, c.N, c.F, c.Model, c.Tau())
	}
	return nil
}

// withDefaults returns a copy with zero limits replaced by defaults.
func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	return c
}

// AboveBound reports whether n exceeds the model's Table 2 threshold, i.e.
// whether the paper guarantees convergence.
func (c Config) AboveBound() bool { return c.N > c.Model.Bound(c.F) }
