package core_test

import (
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// retainingAdversary wraps an inner adversary and stores every view it is
// handed, together with a copy of the votes at call time — the behaviour
// the mobile.ViewRetainer contract exists for. With RetainsView() = true
// the engine must hand it freshly allocated snapshots, so the retained
// slices must still hold their call-time contents after the run.
type retainingAdversary struct {
	inner    mobile.Adversary
	views    []*mobile.View
	snapshot [][]float64
}

func (a *retainingAdversary) RetainsView() bool { return true }

func (a *retainingAdversary) keep(v *mobile.View) {
	a.views = append(a.views, v)
	a.snapshot = append(a.snapshot, append([]float64(nil), v.Votes...))
}

func (a *retainingAdversary) Name() string { return "retaining-" + a.inner.Name() }

func (a *retainingAdversary) Place(v *mobile.View) []int {
	a.keep(v)
	return a.inner.Place(v)
}

func (a *retainingAdversary) LeaveBehind(v *mobile.View, p int) float64 {
	a.keep(v)
	return a.inner.LeaveBehind(v, p)
}

func (a *retainingAdversary) RoundDirectives(rv *mobile.RoundView, d *mobile.Directives) {
	a.keep(rv.View)
	a.inner.RoundDirectives(rv, d)
}

func TestViewRetainerGetsStableCopies(t *testing.T) {
	const n, f = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / n
	}
	mkCfg := func(adv mobile.Adversary) core.Config {
		return core.Config{
			Model:       mobile.M2Bonnet,
			N:           n,
			F:           f,
			Algorithm:   msr.FTM{},
			Adversary:   adv,
			Inputs:      inputs,
			Epsilon:     1e-9,
			FixedRounds: 10,
			Seed:        7,
		}
	}

	ret := &retainingAdversary{inner: mobile.NewRotating()}
	res, err := core.Run(mkCfg(ret))
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.views) == 0 {
		t.Fatal("adversary was never consulted")
	}
	for i, v := range ret.views {
		for j, want := range ret.snapshot[i] {
			got := v.Votes[j]
			if got != want && !(got != got && want != want) { // NaN-tolerant compare
				t.Fatalf("view %d vote %d mutated after the call: %v, snapshot %v — engine recycled a retained buffer", i, j, got, want)
			}
		}
	}

	// Declaring retention must not change the run's outputs.
	plain, err := core.Run(mkCfg(mobile.NewRotating()))
	if err != nil {
		t.Fatal(err)
	}
	if golden.Digest(res) != golden.Digest(plain) {
		t.Error("ViewRetainer adversary produced different outputs than the plain adversary")
	}
}
