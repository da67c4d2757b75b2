package core

import (
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// testConfig builds a standard adversarial configuration: splitter layout
// inputs, splitter adversary.
func splitterConfig(t *testing.T, model mobile.Model, n, f int, algo msr.Algorithm) Config {
	t.Helper()
	layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
	if err != nil {
		t.Fatalf("SplitterLayout(%v, n=%d, f=%d): %v", model, n, f, err)
	}
	return Config{
		Model:        model,
		N:            n,
		F:            f,
		Algorithm:    algo,
		Adversary:    mobile.NewSplitter(),
		Inputs:       layout.Inputs(n),
		InitialCured: layout.InitialCured(model, f),
		Epsilon:      1e-3,
		MaxRounds:    300,
		Seed:         42,
	}
}

// TestConvergenceAboveBound verifies the sufficiency side of Table 2: at
// n = bound+1 every convergent MSR algorithm reaches ε-agreement with
// validity under the worst-case splitter adversary, for every model.
func TestConvergenceAboveBound(t *testing.T) {
	for _, model := range mobile.AllModels() {
		for _, f := range []int{1, 2} {
			for _, algo := range msr.Convergent() {
				n := model.RequiredN(f)
				cfg := splitterConfig(t, model, n, f, algo)
				cfg.EnableCheckers = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%v f=%d %s: %v", model, f, algo.Name(), err)
				}
				if !res.Converged {
					t.Errorf("%v f=%d n=%d %s: did not converge; final diameter %g",
						model, f, n, algo.Name(), res.FinalDiameter())
					continue
				}
				if !res.EpsilonAgreement(cfg.Epsilon) {
					t.Errorf("%v f=%d %s: decision diameter %g > ε", model, f, algo.Name(), res.DecisionDiameter())
				}
				if !res.Valid() {
					t.Errorf("%v f=%d %s: validity violated", model, f, algo.Name())
				}
				if !res.Check.Ok() {
					t.Errorf("%v f=%d %s: checker violations: %v", model, f, algo.Name(), res.Check.Violations)
				}
			}
		}
	}
}

// TestFreezeAtBound verifies the necessity side of Table 2: at n = bound the
// splitter freezes the diameter forever (no contraction after 200 rounds).
func TestFreezeAtBound(t *testing.T) {
	for _, model := range mobile.AllModels() {
		for _, f := range []int{1, 2} {
			n := model.Bound(f)
			cfg := splitterConfig(t, model, n, f, msr.FTA{})
			cfg.FixedRounds = 200
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v f=%d: %v", model, f, err)
			}
			if res.Converged {
				t.Errorf("%v f=%d n=%d: converged at the bound — lower bound broken", model, f, n)
			}
			if got := res.FinalDiameter(); got < 1 {
				t.Errorf("%v f=%d n=%d: diameter contracted to %g; splitter should freeze it at 1",
					model, f, n, got)
			}
		}
	}
}
