package core

import (
	"fmt"
	"math"
	"testing"

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

// TestKernelMixedRowForms checks that the kernel path — a broadcast row
// voted on as a constant run, an explicit row as a patch, an omitted row
// as the bare base — gives every round's votes bit for bit as the snapshot
// path's per-receiver sort over the observation matrix does, for every
// model and algorithm, sequentially and with four vote workers.
func TestKernelMixedRowForms(t *testing.T) {
	const n = 13
	inputs := []float64{0, 0, 1, 0.5, 0.25, 0.75, 0.1, 0.9, 0.3, 0.7, 0, 0.6, 0.4}
	for _, model := range []mobile.Model{mobile.M1Garay, mobile.M2Bonnet, mobile.M3Sasaki, mobile.M4Buhrman} {
		for _, algo := range msr.All() {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%v/%s/workers=%d", model, algo.Name(), workers)
				run := func(snapshot bool) (*Result, [][]float64) {
					adv := &mixedRowAdversary{}
					cfg := Config{
						Model:       model,
						N:           n,
						F:           model.MaxFaulty(n),
						Algorithm:   algo,
						Adversary:   adv,
						Inputs:      inputs,
						Epsilon:     1e-9,
						FixedRounds: 6,
						Seed:        3,
						VoteWorkers: workers,
					}
					if snapshot {
						cfg.OnRound = func(RoundInfo) {}
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s (snapshot %v): %v", name, snapshot, err)
					}
					return res, adv.votes
				}
				kres, kvotes := run(false)
				sres, svotes := run(true)
				if len(kvotes) != len(svotes) {
					t.Fatalf("%s: %d consultations on the kernel path, %d on the snapshot path", name, len(kvotes), len(svotes))
				}
				for round := range kvotes {
					if !sameVoteBits(kvotes[round], svotes[round]) {
						t.Fatalf("%s: votes before round %d: kernel %v, snapshot %v", name, round, kvotes[round], svotes[round])
					}
				}
				if !sameVoteBits(kres.Votes, sres.Votes) || !sameVoteBits(kres.DiameterSeries, sres.DiameterSeries) {
					t.Fatalf("%s: final votes: kernel %v, snapshot %v", name, kres.Votes, sres.Votes)
				}
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
