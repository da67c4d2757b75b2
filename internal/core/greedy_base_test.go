package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// baseCheckingGreedy is the greedy adversary with a check in front of every
// consultation: the RoundView's sealed base must hold exactly the values
// the greedy lookahead used to gather and sort from the View itself —
// every vote but those of faulty senders, M1-cured ones (silent) and
// M3-cured ones (asymmetric queues).
type baseCheckingGreedy struct {
	*mobile.Greedy
	t      *testing.T
	name   string
	rounds int
}

func (g *baseCheckingGreedy) RoundDirectives(rv *mobile.RoundView, d *mobile.Directives) {
	v := rv.View
	var want []float64
	for j, s := range v.States {
		switch {
		case s == mobile.StateFaulty:
		case s == mobile.StateCured && (v.Model == mobile.M1Garay || v.Model == mobile.M3Sasaki):
		default:
			want = append(want, v.Votes[j])
		}
	}
	slices.Sort(want)
	if rv.Base == nil {
		g.t.Fatalf("%s round %d: the engine handed the adversary no sealed base", g.name, v.Round)
	}
	if got := rv.Base.Values(); !sameVoteBits(got, want) {
		g.t.Fatalf("%s round %d: sealed base %v, greedy's own base %v", g.name, v.Round, got, want)
	}
	g.rounds++
	g.Greedy.RoundDirectives(rv, d)
}

// TestKernelSealedBaseMatchesGreedyBase shows, on every model and
// algorithm, that the base the engine seals before the consultation is,
// bit for bit, the base the greedy lookahead used to build and sort from
// the View — so handing it over changes no decision. Inputs include ±0
// and repeated values; M2 and M3 runs start with cured processes.
func TestKernelSealedBaseMatchesGreedyBase(t *testing.T) {
	for _, model := range mobile.AllModels() {
		for _, algo := range msr.All() {
			for _, n := range []int{model.RequiredN(1), model.RequiredN(2) + 3} {
				f := model.MaxFaulty(n)
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = float64(i%5) / 4
				}
				inputs[n-1] = math.Copysign(0, -1)
				cfg := core.Config{
					Model:       model,
					N:           n,
					F:           f,
					Algorithm:   algo,
					Inputs:      inputs,
					Epsilon:     1e-12,
					FixedRounds: 8,
				}
				if model == mobile.M2Bonnet || model == mobile.M3Sasaki {
					cfg.InitialCured = []int{n - 1}
				}
				name := fmt.Sprintf("%v/%s/n=%d", model, algo.Name(), n)
				adv := &baseCheckingGreedy{Greedy: mobile.NewGreedy(), t: t, name: name}
				cfg.Adversary = adv
				if _, err := core.Run(cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if adv.rounds != cfg.FixedRounds {
					t.Fatalf("%s: %d of %d rounds consulted", name, adv.rounds, cfg.FixedRounds)
				}
			}
		}
	}
}
