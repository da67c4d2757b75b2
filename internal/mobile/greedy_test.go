package mobile

import (
	"math"
	"math/rand"
	"testing"

	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
)

// referenceSimulate is the per-receiver lookahead Greedy ran before it
// shared the engine's base+patch form: it rebuilds and sorts every
// non-faulty receiver's n received values under one rule, votes on each,
// and returns the diameter of the votes. It is the oracle the two-multiset
// lookahead must match rule by rule.
func referenceSimulate(v *View, rule valueRule) float64 {
	if v.Algo == nil {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for i, si := range v.States {
		if si == StateFaulty {
			continue
		}
		var values []float64
		for j, sj := range v.States {
			switch sj {
			case StateFaulty:
				values = append(values, rule.apply(v, i))
			case StateCured:
				switch v.Model {
				case M1Garay:
					// silent
				case M2Bonnet:
					values = append(values, v.Votes[j])
				case M3Sasaki:
					values = append(values, rule.apply(v, i))
				case M4Buhrman:
					values = append(values, v.Votes[j])
				}
			default:
				values = append(values, v.Votes[j])
			}
		}
		ms, err := multiset.FromOwned(values)
		if err != nil {
			continue
		}
		next, err := v.Algo.Apply(ms, v.Tau)
		if err != nil {
			continue
		}
		lo = math.Min(lo, next)
		hi = math.Max(hi, next)
		any = true
	}
	if !any {
		return 0
	}
	return hi - lo
}

// referenceDecide is the rule the reference lookahead picks: the first, in
// allValueRules order, with the largest diameter.
func referenceDecide(v *View) valueRule {
	best, bestDiam := ruleCampSplit, math.Inf(-1)
	for _, rule := range allValueRules {
		if d := referenceSimulate(v, rule); d > bestDiam {
			best, bestDiam = rule, d
		}
	}
	return best
}

// sameDiameter compares two diameters, NaN equal to NaN.
func sameDiameter(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b)
}

// sealedBase builds the RoundView.Base the engine seals for v: the votes
// of the correct and the M2-cured senders, sorted, M1-cured senders being
// silent and the faulty and M3-cured ones asymmetric. M4-cured senders,
// which no engine send phase has, rebroadcast their vote as in
// referenceSimulate. It returns nil when a base vote is NaN, which the
// engine rejects before consulting the adversary.
func sealedBase(v *View) *multiset.Multiset {
	var values []float64
	for j, s := range v.States {
		if s == StateFaulty || s == StateCured && (v.Model == M1Garay || v.Model == M3Sasaki) {
			continue
		}
		values = append(values, v.Votes[j])
	}
	base, err := multiset.FromOwned(values)
	if err != nil {
		return nil
	}
	return &base
}

// checkLookahead asserts that a fresh Greedy's lookahead gives every rule
// the reference diameter and that decide picks the reference's rule.
func checkLookahead(t *testing.T, v *View) {
	t.Helper()
	g := NewGreedy()
	base := sealedBase(v)
	got := g.lookahead(v, base)
	for i, rule := range allValueRules {
		if want := referenceSimulate(v, rule); !sameDiameter(got[i], want) {
			t.Fatalf("%v %s tau=%d votes=%v states=%v: rule %d diameter %v, reference %v",
				v.Model, v.Algo.Name(), v.Tau, v.Votes, v.States, rule, got[i], want)
		}
	}
	if got, want := g.decide(&RoundView{View: v, Base: base}), referenceDecide(v); got != want {
		t.Fatalf("%v %s tau=%d votes=%v states=%v: decide picked rule %d, reference %d",
			v.Model, v.Algo.Name(), v.Tau, v.Votes, v.States, got, want)
	}
}

// lookaheadPalette is the vote pool of the lookahead checks: both zeros,
// both infinities, NaN, huge magnitudes, and plain values that repeat.
var lookaheadPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.25, 2, 3,
	1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// lookaheadView is testView voting with algo and trim tau.
func lookaheadView(t *testing.T, model Model, algo msr.Algorithm, tau int, votes []float64, states []State) *View {
	v := testView(t, model, 0, 0, votes, states)
	v.Algo, v.Tau = algo, tau
	return v
}

func TestGreedyLookaheadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	algos := msr.All()
	states := []State{StateCorrect, StateCured, StateFaulty}
	var noCorrect, noAsymmetric int
	for iter := 0; iter < 20000; iter++ {
		model := AllModels()[rng.Intn(4)]
		n := 1 + rng.Intn(14)
		votes := make([]float64, n)
		st := make([]State, n)
		// Shape 1 has no correct process, shape 2 no asymmetric sender
		// (no faulty process, and no cured one under M3).
		shape := rng.Intn(4)
		for i := range votes {
			if rng.Intn(2) == 0 {
				votes[i] = lookaheadPalette[rng.Intn(len(lookaheadPalette))]
			} else {
				votes[i] = rng.NormFloat64()
			}
			switch s := states[rng.Intn(3)]; {
			case shape == 1 && s == StateCorrect:
				st[i] = StateFaulty
			case shape == 2 && (s == StateFaulty || s == StateCured && model == M3Sasaki):
				st[i] = StateCorrect
			default:
				st[i] = s
			}
		}
		v := lookaheadView(t, model, algos[rng.Intn(len(algos))], rng.Intn(4), votes, st)
		if _, _, ok := v.CorrectRange(); !ok {
			noCorrect++
		}
		if c := CountStates(st); c.Faulty == 0 && (model != M3Sasaki || c.Cured == 0) {
			noAsymmetric++
		}
		checkLookahead(t, v)
	}
	if noCorrect == 0 || noAsymmetric == 0 {
		t.Errorf("coverage: %d views without a correct process, %d without an asymmetric sender", noCorrect, noAsymmetric)
	}
}

// FuzzGreedyLookahead checks the two-multiset lookahead against the
// per-receiver reference on fuzzed views: each byte of procs is one
// process, its low two bits the state (3 is correct) and the rest an
// index into lookaheadPalette.
func FuzzGreedyLookahead(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 4, 8, 2, 6, 1})
	f.Add(uint8(1), uint8(1), uint8(2), []byte{2, 5, 1, 0, 12, 16, 20, 3})
	f.Add(uint8(2), uint8(2), uint8(0), []byte{1, 2, 5, 6, 9})
	f.Add(uint8(3), uint8(3), uint8(1), []byte{40, 44, 1, 2, 0, 4, 8})
	f.Add(uint8(2), uint8(0), uint8(3), []byte{48, 0, 4, 3, 7, 11})
	f.Fuzz(func(t *testing.T, model, algo, tau uint8, procs []byte) {
		if len(procs) > 14 {
			procs = procs[:14]
		}
		votes := make([]float64, len(procs))
		st := make([]State, len(procs))
		for i, b := range procs {
			votes[i] = lookaheadPalette[int(b>>2)%len(lookaheadPalette)]
			st[i] = [...]State{StateCorrect, StateCured, StateFaulty, StateCorrect}[b&3]
		}
		algos := msr.All()
		checkLookahead(t, lookaheadView(t, AllModels()[model%4], algos[int(algo)%len(algos)], int(tau%4), votes, st))
	})
}

func TestGreedyDecideAllocatesNothing(t *testing.T) {
	votes := []float64{0.1, 0.9, 0, 0.2, 0.4, 1, 0.7, 0.3, 0.8, 0.6}
	states := []State{StateFaulty, StateFaulty, StateCured, StateCured, StateCorrect,
		StateCorrect, StateCorrect, StateCorrect, StateCorrect, StateCorrect}
	for _, model := range AllModels() {
		for _, algo := range msr.All() {
			g := NewGreedy()
			v := lookaheadView(t, model, algo, model.Trim(2), votes, states)
			rv := &RoundView{View: v, Base: sealedBase(v)}
			g.decide(rv) // warm-up
			allocs := testing.AllocsPerRun(50, func() {
				v.Round++
				g.decide(rv)
			})
			if allocs != 0 {
				t.Errorf("%v %s: decide on a new round allocated %v times", model, algo.Name(), allocs)
			}
		}
	}
}
