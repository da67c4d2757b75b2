package mobile

import (
	"math"
	"testing"

	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
)

// testView builds a View with the given states and votes.
func testView(t *testing.T, model Model, round, f int, votes []float64, states []State) *View {
	t.Helper()
	return &View{
		Round:  round,
		Model:  model,
		N:      len(votes),
		F:      f,
		Tau:    model.Trim(f),
		Algo:   msr.FTA{},
		Votes:  votes,
		States: states,
		Rng:    prng.New(1).Derive(uint64(round)),
	}
}

// scriptOf consults adv once over v with the given scripted senders —
// live agents, or M3 poisoned queues when queue is set — and returns the
// filled script; the k-th sender's entries are read with At(k, receiver).
func scriptOf(adv Adversary, v *View, queue bool, senders ...int) *Directives {
	d := &Directives{}
	d.Reset(v.N)
	for _, s := range senders {
		d.AddSender(s, queue)
	}
	d.Seal()
	rv := &RoundView{View: v, Base: sealedBase(v)}
	if queue {
		rv.Cured = senders
	} else {
		rv.Faulty = senders
	}
	adv.RoundDirectives(rv, d)
	return d
}

func allCorrect(n int) []State {
	s := make([]State, n)
	for i := range s {
		s[i] = StateCorrect
	}
	return s
}

func TestCorrectRange(t *testing.T) {
	states := []State{StateCorrect, StateFaulty, StateCured, StateCorrect}
	v := testView(t, M1Garay, 0, 1, []float64{1, math.NaN(), 99, 5}, states)
	lo, hi, ok := v.CorrectRange()
	if !ok || lo != 1 || hi != 5 {
		t.Errorf("CorrectRange = %v, %v, %v; want 1, 5, true", lo, hi, ok)
	}
	// No correct process.
	v2 := testView(t, M1Garay, 0, 1, []float64{1}, []State{StateFaulty})
	if _, _, ok := v2.CorrectRange(); ok {
		t.Error("CorrectRange with no correct processes should report !ok")
	}
}

func TestSplitterLayoutGeometry(t *testing.T) {
	tests := []struct {
		model           Model
		n, f            int
		pool, low, high int
	}{
		{M1Garay, 8, 2, 4, 2, 2},   // n=4f: camps f/f
		{M1Garay, 9, 2, 4, 3, 2},   // extra process joins Low
		{M2Bonnet, 10, 2, 4, 4, 2}, // n=5f: camps 2f/f
		{M3Sasaki, 12, 2, 4, 4, 4}, // n=6f: camps 2f/2f
		{M4Buhrman, 6, 2, 2, 2, 2}, // n=3f: pool f, camps f/f
		{M4Buhrman, 7, 2, 2, 3, 2},
	}
	for _, tt := range tests {
		l, err := SplitterLayout(tt.model, tt.n, tt.f, 0, 1)
		if err != nil {
			t.Fatalf("%v n=%d: %v", tt.model, tt.n, err)
		}
		if len(l.Pool) != tt.pool || len(l.Low) != tt.low || len(l.High) != tt.high {
			t.Errorf("%v n=%d f=%d: pool/low/high = %d/%d/%d, want %d/%d/%d",
				tt.model, tt.n, tt.f, len(l.Pool), len(l.Low), len(l.High), tt.pool, tt.low, tt.high)
		}
		if len(l.Pool)+len(l.Low)+len(l.High) != tt.n {
			t.Errorf("%v: layout does not partition %d processes", tt.model, tt.n)
		}
	}
}

func TestSplitterLayoutErrors(t *testing.T) {
	if _, err := SplitterLayout(Model(9), 5, 1, 0, 1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := SplitterLayout(M1Garay, 3, 1, 0, 1); err == nil {
		t.Error("n too small for camps accepted")
	}
	if _, err := SplitterLayout(M1Garay, -1, 1, 0, 1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestLayoutInputsAndCured(t *testing.T) {
	l, err := SplitterLayout(M2Bonnet, 10, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs := l.Inputs(10)
	for _, i := range l.Low {
		if inputs[i] != 0 {
			t.Errorf("low camp input[%d] = %v, want 0", i, inputs[i])
		}
	}
	for _, i := range l.High {
		if inputs[i] != 1 {
			t.Errorf("high camp input[%d] = %v, want 1", i, inputs[i])
		}
	}
	for _, i := range l.Pool {
		if inputs[i] != 1 {
			t.Errorf("pool input[%d] = %v, want hi (the corrupted stored value)", i, inputs[i])
		}
	}
	cured := l.InitialCured(M2Bonnet, 2)
	if len(cured) != 2 || cured[0] != 2 || cured[1] != 3 {
		t.Errorf("InitialCured = %v, want [2 3] (second pool half)", cured)
	}
	if got := l.InitialCured(M4Buhrman, 2); got != nil {
		t.Errorf("M4 InitialCured = %v, want nil", got)
	}
	if got := l.InitialCured(M2Bonnet, 0); got != nil {
		t.Errorf("f=0 InitialCured = %v, want nil", got)
	}
}

func TestSplitterPingPongPlacement(t *testing.T) {
	s := NewSplitter()
	votes := make([]float64, 8)
	l, _ := SplitterLayout(M1Garay, 8, 2, 0, 1)
	copy(votes, l.Inputs(8))
	even := s.Place(testView(t, M1Garay, 0, 2, votes, allCorrect(8)))
	odd := s.Place(testView(t, M1Garay, 1, 2, votes, allCorrect(8)))
	if len(even) != 2 || even[0] != 0 || even[1] != 1 {
		t.Errorf("even placement = %v, want [0 1]", even)
	}
	if len(odd) != 2 || odd[0] != 2 || odd[1] != 3 {
		t.Errorf("odd placement = %v, want [2 3]", odd)
	}
}

func TestSplitterSteering(t *testing.T) {
	s := NewSplitter()
	l, _ := SplitterLayout(M1Garay, 8, 2, 0, 1)
	votes := l.Inputs(8)
	v := testView(t, M1Garay, 0, 2, votes, allCorrect(8))
	// Low camp receiver (index 4) gets lo; high camp (index 6) gets hi.
	d := scriptOf(s, v, false, 0)
	if val, omit := d.At(0, l.Low[0]); omit || val != 0 {
		t.Errorf("faulty value to low = %v, %v; want 0", val, omit)
	}
	if val, omit := d.At(0, l.High[0]); omit || val != 1 {
		t.Errorf("faulty value to high = %v, %v; want 1", val, omit)
	}
	if lb := s.LeaveBehind(v, 1); lb != 1 {
		t.Errorf("LeaveBehind = %v, want hi", lb)
	}
	if qv, omit := scriptOf(s, v, true, 1).At(0, l.High[0]); omit || qv != 1 {
		t.Errorf("queue value to high = %v, %v; want 1", qv, omit)
	}
}

func TestSplitterM4Placement(t *testing.T) {
	s := NewSplitter()
	l, _ := SplitterLayout(M4Buhrman, 6, 2, 0, 1)
	votes := l.Inputs(6)
	init := s.Place(testView(t, M4Buhrman, 0, 2, votes, allCorrect(6)))
	if len(init) != 2 || init[0] != 0 || init[1] != 1 {
		t.Errorf("initial M4 placement = %v, want pool [0 1]", init)
	}
	// Mid-round move: lowest-vote correct processes (the Low camp).
	states := allCorrect(6)
	states[0], states[1] = StateFaulty, StateFaulty
	votes2 := []float64{math.NaN(), math.NaN(), 0, 0, 1, 1}
	next := s.Place(testView(t, M4Buhrman, 1, 2, votes2, states))
	if len(next) != 2 || next[0] != 2 || next[1] != 3 {
		t.Errorf("M4 next placement = %v, want Low camp [2 3]", next)
	}
}

func TestRotatingPlacementSweeps(t *testing.T) {
	r := NewRotating()
	votes := make([]float64, 5)
	hit := make(map[int]bool)
	for round := 0; round < 5; round++ {
		for _, p := range r.Place(testView(t, M2Bonnet, round, 2, votes, allCorrect(5))) {
			hit[p] = true
		}
	}
	if len(hit) != 5 {
		t.Errorf("rotating adversary hit %d/5 processes over 5 rounds", len(hit))
	}
}

func TestStationaryPlacementFixed(t *testing.T) {
	s := NewStationary()
	votes := make([]float64, 5)
	for round := 0; round < 3; round++ {
		got := s.Place(testView(t, M1Garay, round, 2, votes, allCorrect(5)))
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("round %d: stationary placement = %v", round, got)
		}
	}
}

func TestCrashAlwaysOmits(t *testing.T) {
	c := NewCrash()
	votes := []float64{1, 2, 3, 4, 5}
	v := testView(t, M1Garay, 0, 2, votes, allCorrect(5))
	faulty, queue := scriptOf(c, v, false, 0), scriptOf(c, v, true, 0)
	for recv := 0; recv < 5; recv++ {
		if _, omit := faulty.At(0, recv); !omit {
			t.Errorf("crash adversary sent a value to %d", recv)
		}
		if _, omit := queue.At(0, recv); !omit {
			t.Errorf("crash queue sent a value to %d", recv)
		}
	}
	if lb := c.LeaveBehind(v, 0); lb != 3 {
		t.Errorf("crash LeaveBehind = %v, want midpoint 3", lb)
	}
}

func TestRandomAdversaryDeterministicPerView(t *testing.T) {
	r := NewRandom()
	votes := []float64{0, 0.5, 1, 0.2, 0.8}
	mk := func() *View { return testView(t, M2Bonnet, 3, 2, votes, allCorrect(5)) }
	p1 := r.Place(mk())
	p2 := r.Place(mk())
	if len(p1) != len(p2) {
		t.Fatal("placement sizes differ")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("random placement not reproducible: %v vs %v", p1, p2)
		}
	}
}

func TestGreedyChoosesWorstRule(t *testing.T) {
	g := NewGreedy()
	// Two camps 0/1: the greedy must pick the rule the per-receiver
	// reference lookahead scores highest, and send every receiver its value.
	votes := []float64{math.NaN(), 0.5, 0, 0, 1, 1}
	states := []State{StateFaulty, StateCured, StateCorrect, StateCorrect, StateCorrect, StateCorrect}
	v := testView(t, M2Bonnet, 1, 1, votes, states)
	want := referenceDecide(v)
	d := scriptOf(g, v, false, 0)
	for recv := range votes {
		got, omit := d.At(0, recv)
		if omit {
			t.Fatalf("greedy omitted to %d", recv)
		}
		if w := want.apply(v, recv); got != w {
			t.Errorf("greedy sends %v to %d, the reference's best rule %d sends %v", got, recv, want, w)
		}
	}
}

func TestByAdversaryNameRegistry(t *testing.T) {
	for _, name := range AdversaryNames() {
		a, err := ByAdversaryName(name)
		if err != nil {
			t.Fatalf("ByAdversaryName(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("adversary %q reports name %q", name, a.Name())
		}
	}
	if _, err := ByAdversaryName("nope"); err == nil {
		t.Error("unknown adversary accepted")
	}
}

func TestAdversariesStayInRange(t *testing.T) {
	// Every adversary's faulty values either omit or land within the
	// correct range widened by one diameter: wilder values are strictly
	// weaker (trimmed), and in-range values are what the engine's
	// checkers assume adversaries rationally play.
	votes := []float64{0, 0.2, 0.4, 0.6, 0.8, 1, 0.5, 0.3}
	for _, name := range AdversaryNames() {
		adv, err := ByAdversaryName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := scriptOf(adv, testView(t, M1Garay, 2, 2, votes, allCorrect(8)), false, 0)
		for recv := 0; recv < 8; recv++ {
			val, omit := d.At(0, recv)
			if omit {
				continue
			}
			if math.IsNaN(val) || val < -1 || val > 2 {
				t.Errorf("%s sent %v, outside the plausible attack range", name, val)
			}
		}
	}
}
