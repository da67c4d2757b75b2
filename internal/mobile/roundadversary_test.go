package mobile

import (
	"math"
	"testing"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
)

// roundTestView builds a small M3 view with a mix of states: 0 faulty, 4 cured,
// the rest correct with a spread of votes (7 has NaN-free extremes).
func roundTestView(seed uint64) *View {
	votes := []float64{math.NaN(), 0.1, 0.9, 0.4, 0.6, 0.2, 0.8}
	states := []State{StateFaulty, StateCorrect, StateCorrect, StateCorrect, StateCured, StateCorrect, StateCorrect}
	return &View{
		Round:  1,
		Model:  M3Sasaki,
		N:      7,
		F:      1,
		Tau:    1,
		Algo:   msr.FTM{},
		Votes:  votes,
		States: states,
		Rng:    prng.New(seed).Derive(1, 2),
	}
}

// newDirectives builds a sealed block for the test view's scripted senders:
// faulty 0 (live agent) and cured 4 (M3 queue).
func newDirectives(n int) *Directives {
	d := &Directives{}
	d.Reset(n)
	d.AddSender(0, false)
	d.AddSender(4, true)
	d.Seal()
	return d
}

func TestDirectivesDefaultsToOmission(t *testing.T) {
	d := newDirectives(7)
	if d.Len() != 2 || d.N() != 7 {
		t.Fatalf("Len=%d N=%d, want 2, 7", d.Len(), d.N())
	}
	if d.Sender(0) != 0 || d.Sender(1) != 4 || d.IsQueue(0) || !d.IsQueue(1) {
		t.Fatalf("sender/queue bookkeeping wrong: senders (%d,%d) queue (%v,%v)",
			d.Sender(0), d.Sender(1), d.IsQueue(0), d.IsQueue(1))
	}
	for k := 0; k < d.Len(); k++ {
		for r := 0; r < d.N(); r++ {
			if _, omit := d.At(k, r); !omit {
				t.Fatalf("entry (%d,%d) not omitted after Seal", k, r)
			}
		}
	}
}

func TestDirectivesSetAndReuse(t *testing.T) {
	d := newDirectives(7)
	d.Set(0, 3, 0.5)
	d.Set(1, 3, 0.7)
	d.Set(1, 6, math.NaN()) // NaN sanitises to an omission
	d.Omit(0, 3)            // explicit omission after a Set

	if v, omit := d.At(1, 3); omit || v != 0.7 {
		t.Fatalf("At(1,3) = (%v, %v), want (0.7, false)", v, omit)
	}
	if _, omit := d.At(1, 6); !omit {
		t.Fatal("NaN Set did not record an omission")
	}
	if _, omit := d.At(0, 3); !omit {
		t.Fatal("Omit after Set did not stick")
	}
	if row := d.AppendRow(nil, 3); len(row) != 1 || row[0] != 0.7 {
		t.Fatalf("AppendRow(3) = %v, want [0.7]", row)
	}

	if k, ok := d.Index(4); !ok || k != 1 {
		t.Fatalf("Index(4) = (%d, %v), want (1, true)", k, ok)
	}
	if _, ok := d.Index(2); ok {
		t.Fatal("Index(2) found an unscripted sender")
	}

	// Reuse: a Reset/Seal cycle must fully clear the previous round.
	d.Reset(7)
	d.AddSender(2, false)
	d.Seal()
	if d.Len() != 1 || d.Sender(0) != 2 {
		t.Fatalf("after reuse: Len=%d Sender(0)=%d", d.Len(), d.Sender(0))
	}
	if _, omit := d.At(0, 3); !omit {
		t.Fatal("reused block leaked a directive from the previous round")
	}
}

// TestNativeDirectivesMatchAdapter fills one script through each
// built-in's native RoundDirectives and another through the per-pair
// Adapter over an identically seeded view, and requires every entry and
// every row's patch to match bitwise —
// the unit-level form of the equivalence the proptest and golden suites
// assert end to end.
func TestNativeDirectivesMatchAdapter(t *testing.T) {
	builtins := []func() Adversary{
		func() Adversary { return NewStationary() },
		func() Adversary { return NewRotating() },
		func() Adversary { return NewRandom() },
		func() Adversary { return NewCrash() },
		func() Adversary { return NewSplitter() },
		func() Adversary { return NewGreedy() },
		func() Adversary { return NewMixedMode(mixedmode.Counts{Asymmetric: 1, Symmetric: 1, Benign: 1}) },
	}
	for _, fresh := range builtins {
		name := fresh().Name()
		native, ok := fresh().(RoundAdversary)
		if !ok {
			t.Errorf("%s: no native RoundDirectives implementation", name)
			continue
		}
		adapted := Adapt(fresh())

		nd, ad := newDirectives(7), newDirectives(7)
		nv, av := roundTestView(99), roundTestView(99)
		native.RoundDirectives(&RoundView{View: nv, Faulty: []int{0}, Cured: []int{4}}, nd)
		adapted.RoundDirectives(&RoundView{View: av, Faulty: []int{0}, Cured: []int{4}}, ad)

		for r := 0; r < nd.N(); r++ {
			if got, want := nd.AppendRow(nil, r), ad.AppendRow(nil, r); !equalFloats(got, want) {
				t.Errorf("%s: AppendRow(%d): native %v != adapter %v", name, r, got, want)
			}
		}
		for k := 0; k < nd.Len(); k++ {
			for r := 0; r < nd.N(); r++ {
				gotVal, gotOmit := nd.At(k, r)
				wantVal, wantOmit := ad.At(k, r)
				if gotOmit != wantOmit || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
					t.Errorf("%s: entry (sender %d, receiver %d): native (%v,%v) != adapter (%v,%v)",
						name, nd.Sender(k), r, gotVal, gotOmit, wantVal, wantOmit)
				}
			}
		}
	}
}

// TestMarkersLookThroughAdapter pins the wrapper-aware marker lookups:
// statefulness and view retention must survive adaptation, or batch layers
// would share stateful instances and engines would hand out scratch views
// to retaining adversaries.
func TestMarkersLookThroughAdapter(t *testing.T) {
	if !IsStateful(Adapt(NewSplitter())) {
		t.Error("IsStateful lost the Stateful marker through Adapt")
	}
	if IsStateful(Adapt(NewRotating())) {
		t.Error("IsStateful invented a Stateful marker through Adapt")
	}
	if RetainsViews(Adapt(retainingAdv{})) != true {
		t.Error("RetainsViews lost the ViewRetainer marker through Adapt")
	}
	if RetainsViews(NewRotating()) {
		t.Error("RetainsViews reported true for a non-retaining adversary")
	}
	if ad := Adapt(NewGreedy()); ad.Unwrap().Name() != "greedy" {
		t.Error("Unwrap did not return the wrapped adversary")
	}
}

// retainingAdv is a minimal ViewRetainer for the marker test.
type retainingAdv struct{ Crash }

func (retainingAdv) RetainsView() bool { return true }

// TestFactoryResolvesBatched pins AdversaryFactoryByName's contract:
// factory instances are always batch-consultable.
func TestFactoryResolvesBatched(t *testing.T) {
	for _, name := range AdversaryNames() {
		factory, err := AdversaryFactoryByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := factory()
		if _, ok := a.(RoundAdversary); !ok {
			t.Errorf("%s: factory instance is not a RoundAdversary", name)
		}
		if a.Name() != name {
			t.Errorf("factory for %q built %q", name, a.Name())
		}
	}
}
