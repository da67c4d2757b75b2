package core

import (
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
)

// TestSoakLargeSystem runs a 101-process system at maximal fault load with
// checkers on for an extended horizon under every adversary — the
// long-running confidence test. Skipped with -short.
func TestSoakLargeSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 101
	for _, model := range mobile.AllModels() {
		f := model.MaxFaulty(n)
		for _, advName := range []string{"rotating", "random", "splitter"} {
			adv, err := mobile.ByAdversaryName(advName)
			if err != nil {
				t.Fatal(err)
			}
			rng := prng.New(123)
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = rng.Range(-1000, 1000)
			}
			cfg := Config{
				Model:          model,
				N:              n,
				F:              f,
				Algorithm:      msr.FTM{},
				Adversary:      adv,
				Inputs:         inputs,
				Epsilon:        1e-6,
				MaxRounds:      200,
				Seed:           777,
				EnableCheckers: true,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", model, advName, err)
			}
			if !res.Converged {
				t.Errorf("%v/%s: n=%d f=%d did not converge in %d rounds (diam %g)",
					model, advName, n, f, res.Rounds, res.FinalDiameter())
			}
			if !res.Valid() || !res.EpsilonAgreement(1e-6) {
				t.Errorf("%v/%s: properties violated", model, advName)
			}
			if !res.Check.Ok() {
				t.Errorf("%v/%s: %d checker violations", model, advName, len(res.Check.Violations))
			}
		}
	}
}
