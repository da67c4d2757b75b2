package core_test

import (
	"fmt"
	"math"
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// mixedRowAdversary places its agents as Rotating does and scripts every
// round with all three row forms of a Directives script: broadcast rows
// (some of −0, tied with a +0 in the base), a broadcast row that a later
// Set makes explicit, and omitted rows. It records the vote vector it sees
// at every consultation, which is the previous round's votes.
type mixedRowAdversary struct {
	mobile.Rotating
	votes [][]float64
}

func (a *mixedRowAdversary) RoundDirectives(rv *mobile.RoundView, d *mobile.Directives) {
	v := rv.View
	a.votes = append(a.votes, append([]float64(nil), v.Votes...))
	if d.Len() == 0 {
		return
	}
	lo, hi, _ := v.CorrectRange()
	for r := 0; r < d.N(); r++ {
		switch (r + v.Round) % 4 {
		case 0:
			d.SetRow(r, lo)
		case 1:
			d.SetRow(r, hi)
			d.Set(r%d.Len(), r, lo)
		case 2:
			// omitted
		case 3:
			d.SetRow(r, math.Copysign(0, -1))
		}
	}
}

// TestKernelMixedRowForms checks that the kernel's votes — a broadcast row
// voted on as a constant run, an explicit row as a patch, an omitted row as
// the bare base — equal, bit for bit and every round, the matrix reference's
// per-receiver sort over the observation matrix materialized from the same
// plan (golden.CheckMatrixVotes), for every model and algorithm. A run
// without OnRound must also give the same votes as one with it: the
// snapshot materialization must not perturb the run.
func TestKernelMixedRowForms(t *testing.T) {
	const n = 13
	inputs := []float64{0, 0, 1, 0.5, 0.25, 0.75, 0.1, 0.9, 0.3, 0.7, 0, 0.6, 0.4}
	for _, model := range []mobile.Model{mobile.M1Garay, mobile.M2Bonnet, mobile.M3Sasaki, mobile.M4Buhrman} {
		for _, algo := range msr.All() {
			name := fmt.Sprintf("%v/%s", model, algo.Name())
			run := func(snapshot bool) (*core.Result, [][]float64) {
				adv := &mixedRowAdversary{}
				cfg := core.Config{
					Model:       model,
					N:           n,
					F:           model.MaxFaulty(n),
					Algorithm:   algo,
					Adversary:   adv,
					Inputs:      inputs,
					Epsilon:     1e-9,
					FixedRounds: 6,
					Seed:        3,
				}
				var report func() (int, error)
				if snapshot {
					cfg.OnRound, report = golden.ReferenceHook(cfg)
				}
				res, err := core.Run(cfg)
				if err != nil {
					t.Fatalf("%s (snapshot %v): %v", name, snapshot, err)
				}
				if snapshot {
					if rounds, err := report(); err != nil || rounds != res.Rounds {
						t.Fatalf("%s: %d of %d rounds checked against the matrix reference: %v", name, rounds, res.Rounds, err)
					}
				}
				return res, adv.votes
			}
			kres, kvotes := run(false)
			sres, svotes := run(true)
			if len(kvotes) != len(svotes) {
				t.Fatalf("%s: %d consultations without OnRound, %d with it", name, len(kvotes), len(svotes))
			}
			for round := range kvotes {
				if !sameVoteBits(kvotes[round], svotes[round]) {
					t.Fatalf("%s: votes before round %d: without OnRound %v, with it %v", name, round, kvotes[round], svotes[round])
				}
			}
			if !sameVoteBits(kres.Votes, sres.Votes) || !sameVoteBits(kres.DiameterSeries, sres.DiameterSeries) {
				t.Fatalf("%s: final votes: without OnRound %v, with it %v", name, kres.Votes, sres.Votes)
			}
		}
	}
}

// sameVoteBits compares two vote vectors bit for bit.
func sameVoteBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
