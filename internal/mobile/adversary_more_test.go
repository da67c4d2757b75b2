package mobile

import (
	"math"
	"testing"
)

// TestAdversaryLeaveBehindAndQueues covers the departure-time and
// queue-poisoning behaviour of every registered adversary (the paths only
// M2/M3 runs exercise).
func TestAdversaryLeaveBehindAndQueues(t *testing.T) {
	votes := []float64{0, 0.25, 0.5, 0.75, 1, 0.4, 0.6, 0.3}
	for _, name := range AdversaryNames() {
		adv, err := ByAdversaryName(name)
		if err != nil {
			t.Fatal(err)
		}
		v := testView(t, M2Bonnet, 1, 2, votes, allCorrect(8))
		lb := adv.LeaveBehind(v, 0)
		if math.IsNaN(lb) {
			t.Errorf("%s: LeaveBehind returned NaN", name)
		}
		// A rational adversary leaves a value the reduction cannot
		// instantly discard as absurd: within one diameter of the range.
		if lb < -1 || lb > 2 {
			t.Errorf("%s: LeaveBehind %v outside plausible window", name, lb)
		}
		d := scriptOf(adv, testView(t, M3Sasaki, 1, 2, votes, allCorrect(8)), true, 0)
		for recv := 0; recv < 8; recv++ {
			qv, omit := d.At(0, recv)
			if omit {
				continue
			}
			if math.IsNaN(qv) || qv < -1 || qv > 2 {
				t.Errorf("%s: queue value %v outside plausible window", name, qv)
			}
		}
	}
}

// TestGreedyPlacementSchedules covers the greedy adversary's placement for
// both movement regimes.
func TestGreedyPlacementSchedules(t *testing.T) {
	g := NewGreedy()
	votes := make([]float64, 8)
	// M1 ping-pong halves.
	even := g.Place(testView(t, M1Garay, 0, 2, votes, allCorrect(8)))
	odd := g.Place(testView(t, M1Garay, 1, 2, votes, allCorrect(8)))
	if len(even) != 2 || even[0] != 0 {
		t.Errorf("greedy even placement = %v", even)
	}
	if len(odd) != 2 || odd[0] != 2 {
		t.Errorf("greedy odd placement = %v", odd)
	}
	// M4 mid-round: lowest-vote correct.
	states := allCorrect(6)
	states[0], states[1] = StateFaulty, StateFaulty
	votes4 := []float64{math.NaN(), math.NaN(), 0, 0, 1, 1}
	next := g.Place(testView(t, M4Buhrman, 1, 2, votes4, states))
	if len(next) != 2 || next[0] != 2 || next[1] != 3 {
		t.Errorf("greedy M4 placement = %v, want [2 3]", next)
	}
	// f=0: nobody to place.
	if got := g.Place(testView(t, M1Garay, 0, 0, votes, allCorrect(8))); got != nil {
		t.Errorf("f=0 placement = %v", got)
	}
	// Degenerate: 2f > n falls back to the first f indices.
	tight := g.Place(testView(t, M1Garay, 0, 3, make([]float64, 5), allCorrect(5)))
	if len(tight) != 3 || tight[0] != 0 {
		t.Errorf("degenerate placement = %v", tight)
	}
}

// TestGreedyLeaveBehindAndQueue covers the remaining greedy surfaces.
func TestGreedyLeaveBehindAndQueue(t *testing.T) {
	g := NewGreedy()
	votes := []float64{0, 1, 0.5, 0.25, 0.75, 0.1}
	v := testView(t, M3Sasaki, 2, 1, votes, allCorrect(6))
	if lb := g.LeaveBehind(v, 0); lb != 1 {
		t.Errorf("greedy LeaveBehind = %v, want correct max", lb)
	}
	states := allCorrect(6)
	states[0] = StateCured
	vq := testView(t, M3Sasaki, 2, 1, votes, states)
	if qv, omit := scriptOf(g, vq, true, 0).At(0, 1); omit || math.IsNaN(qv) {
		t.Errorf("greedy queue value = %v, %v", qv, omit)
	}
}

// TestSplitterDegenerateGeometry exercises the fallback paths when the
// layout cannot form camps.
func TestSplitterDegenerateGeometry(t *testing.T) {
	s := NewSplitter()
	// n=3, f=1 under M1: pool would need 2, camps 1 — layout fails, the
	// splitter must still produce a legal placement.
	votes := []float64{0, 0.5, 1}
	got := s.Place(testView(t, M1Garay, 0, 1, votes, allCorrect(3)))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("degenerate placement = %v, want [0]", got)
	}
	// f=0: no agents.
	s2 := NewSplitter()
	if got := s2.Place(testView(t, M1Garay, 0, 0, votes, allCorrect(3))); got != nil {
		t.Errorf("f=0 placement = %v", got)
	}
}

// TestSplitterM4PlacementFallbacks covers the M4 initial fallback when the
// pool is undersized.
func TestSplitterM4PlacementFallbacks(t *testing.T) {
	s := NewSplitter()
	// n=2, f=1: M4 layout pool=f=1, camps 1 — too small, fallback.
	votes := []float64{0, 1}
	got := s.Place(testView(t, M4Buhrman, 0, 1, votes, allCorrect(2)))
	if len(got) != 1 {
		t.Errorf("M4 degenerate placement = %v", got)
	}
}

// TestRotatingAndCrashEmptySystems covers the zero-size guards.
func TestRotatingAndCrashEmptySystems(t *testing.T) {
	v := testView(t, M1Garay, 0, 0, nil, nil)
	if got := NewRotating().Place(v); got != nil {
		t.Errorf("rotating on empty system: %v", got)
	}
	if got := NewRandom().Place(v); got != nil {
		t.Errorf("random on empty system: %v", got)
	}
}

// TestStationaryAndRandomLeaveBehind covers the remaining uncovered
// branches when no correct process exists.
func TestAdversariesWithNoCorrectProcesses(t *testing.T) {
	votes := []float64{math.NaN(), math.NaN()}
	states := []State{StateFaulty, StateFaulty}
	v := testView(t, M1Garay, 1, 2, votes, states)
	if lb := (Stationary{}).LeaveBehind(v, 0); lb != 0 {
		t.Errorf("stationary LeaveBehind with no correct = %v", lb)
	}
	if lb := (Rotating{}).LeaveBehind(v, 0); lb != 0 {
		t.Errorf("rotating LeaveBehind with no correct = %v", lb)
	}
	if lb := (Crash{}).LeaveBehind(v, 0); lb != 0 {
		t.Errorf("crash LeaveBehind with no correct = %v", lb)
	}
	d := scriptOf(Random{}, v, false, 0)
	for recv := 0; recv < 2; recv++ {
		if val, omit := d.At(0, recv); !omit && (val < -1 || val > 1) {
			t.Errorf("random fallback value = %v", val)
		}
	}
	if campValue(v, 0) != 0 {
		t.Error("campValue with no correct should be 0")
	}
}

func TestModelStringsComplete(t *testing.T) {
	for _, m := range AllModels() {
		if m.String() == "" || m.Short() == "" {
			t.Errorf("model %d has empty strings", int(m))
		}
	}
	if Model(9).String() != "Model(9)" {
		t.Errorf("invalid model String = %q", Model(9).String())
	}
	if got := Model(9).Bound(1); got != 0 {
		t.Errorf("invalid model Bound = %d", got)
	}
	if got := Model(9).Trim(1); got != 0 {
		t.Errorf("invalid model Trim = %d", got)
	}
	if got := Model(9).MaxFaulty(10); got != 0 {
		t.Errorf("invalid model MaxFaulty = %d", got)
	}
	if got := Model(9).CuredClass(); got != 0 {
		t.Errorf("invalid model CuredClass = %v", got)
	}
}
