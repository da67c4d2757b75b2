package msr

import (
	"math"
	"testing"
	"testing/quick"

	"mbfaa/internal/multiset"
)

func TestFTAKnownValues(t *testing.T) {
	// {0,0,0,1,1} trimmed by 2 leaves {0}: the paper's Theorem 4 multiset.
	m := multiset.MustFromValues(0, 0, 0, 1, 1)
	v, err := FTA{}.Apply(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("FTA = %v, want 0", v)
	}
	// {0,1,2,3,4,5} trimmed by 1 → mean(1,2,3,4) = 2.5.
	m = multiset.MustFromValues(0, 1, 2, 3, 4, 5)
	v, err = FTA{}.Apply(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2.5 {
		t.Errorf("FTA = %v, want 2.5", v)
	}
}

func TestFTMKnownValues(t *testing.T) {
	m := multiset.MustFromValues(0, 1, 2, 3, 4, 10)
	v, err := FTM{}.Apply(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2.5 { // midpoint of [1,4]
		t.Errorf("FTM = %v, want 2.5", v)
	}
}

func TestDolevKnownValues(t *testing.T) {
	// 7 values, τ=1 → survivors {1..5}, select every 1st = all → mean 3.
	m := multiset.MustFromValues(0, 1, 2, 3, 4, 5, 6)
	v, err := DolevSelect{}.Apply(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("Dolev τ=1 = %v, want 3", v)
	}
	// τ=2 → survivors {2,3,4}, select indices 0,2 → {2,4} → mean 3.
	v, err = DolevSelect{}.Apply(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("Dolev τ=2 = %v, want 3", v)
	}
	// τ=0 degenerates to the plain mean.
	v, err = DolevSelect{}.Apply(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("Dolev τ=0 = %v, want 3", v)
	}
}

func TestMedianKnownValues(t *testing.T) {
	m := multiset.MustFromValues(0, 1, 5, 9, 10)
	v, err := Median{}.Apply(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("Median = %v, want 5", v)
	}
}

func TestApplyErrorsOnOverTrim(t *testing.T) {
	m := multiset.MustFromValues(1, 2)
	for _, algo := range All() {
		if _, err := algo.Apply(m, 1); err == nil {
			t.Errorf("%s: trimming 2 of 2 values should fail", algo.Name())
		}
	}
}

func TestApplyCapped(t *testing.T) {
	// 3 values with τ=5: capped to τ=1, survivors {2}.
	v, err := ApplyCapped(FTA{}, []float64{1, 2, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("ApplyCapped = %v, want 2", v)
	}
	if _, err := ApplyCapped(FTA{}, nil, 1); err == nil {
		t.Error("empty input should fail")
	}
	// A single value survives any tau.
	v, err = ApplyCapped(FTM{}, []float64{7}, 3)
	if err != nil || v != 7 {
		t.Errorf("singleton = %v, %v; want 7", v, err)
	}
}

func TestContractionGuarantees(t *testing.T) {
	tests := []struct {
		name         string
		algo         Algorithm
		m, tau, asym int
		want         float64
		ok           bool
	}{
		{"FTA static n=4 f=1", FTA{}, 4, 1, 1, 0.5, true},
		{"FTA static n=5 f=1", FTA{}, 5, 1, 1, 1.0 / 3, true},
		{"FTA M2 n=11 f=2", FTA{}, 11, 4, 2, 2.0 / 3, true},
		{"FTA vacuous", FTA{}, 5, 2, 1, 0, false}, // survivors 1 = asym... 1>=1
		{"FTA fault-free", FTA{}, 5, 0, 0, 0, true},
		{"FTM normal", FTM{}, 9, 2, 2, 0.5, true},
		{"FTM vacuous survivors", FTM{}, 4, 2, 1, 0, false},
		{"Dolev n=7 tau=2", DolevSelect{}, 7, 2, 2, 0.5, true},
		{"Dolev wide", DolevSelect{}, 13, 2, 2, 1.0 / 5, true},
		{"Dolev FTM fallback", DolevSelect{}, 11, 4, 2, 0.5, true},
		{"Median never", Median{}, 100, 2, 1, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.algo.Contraction(tt.m, tt.tau, tt.asym)
			if ok != tt.ok {
				t.Fatalf("ok = %v, want %v", ok, tt.ok)
			}
			if ok && math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("C = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRequiredRounds(t *testing.T) {
	r, err := RequiredRounds(1, 1e-3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r != 10 { // 2^-10 ≈ 9.8e-4 ≤ 1e-3
		t.Errorf("RequiredRounds = %d, want 10", r)
	}
	if r, _ := RequiredRounds(0.5, 1, 0.5); r != 0 {
		t.Errorf("already within ε: got %d rounds", r)
	}
	if r, _ := RequiredRounds(5, 1e-3, 0); r != 1 {
		t.Errorf("perfect contraction: got %d rounds, want 1", r)
	}
	if _, err := RequiredRounds(1, 0, 0.5); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := RequiredRounds(1, 1e-3, 1); err == nil {
		t.Error("c=1 should fail")
	}
	if _, err := RequiredRounds(1, 1e-3, -0.1); err == nil {
		t.Error("negative c should fail")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range []string{"fta", "ftm", "dolev", "median"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, a.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should fail")
	}
	if got := len(Names()); got != 4 {
		t.Errorf("Names() has %d entries, want 4", got)
	}
	if got := len(Convergent()); got != 3 {
		t.Errorf("Convergent() has %d entries, want 3", got)
	}
}

// wrapped is an Algorithm from outside the package's own four.
type wrapped struct{ FTM }

func TestPure(t *testing.T) {
	for _, a := range All() {
		if !Pure(a) {
			t.Errorf("Pure(%s) = false; the package's own algorithms are pure", a.Name())
		}
	}
	if Pure(wrapped{}) {
		t.Error("Pure reports an embedding wrapper as pure")
	}
}

// buildAdversarialViews constructs the multisets two correct receivers see:
// a common correct multiset plus per-receiver asymmetric values. It returns
// the two views and the correct range.
func buildAdversarialViews(correct []float64, byzA, byzB []float64) (a, b multiset.Multiset, iv multiset.Interval) {
	a = multiset.MustFromValues(append(append([]float64{}, correct...), byzA...)...)
	b = multiset.MustFromValues(append(append([]float64{}, correct...), byzB...)...)
	iv, _ = multiset.MustFromValues(correct...).Range()
	return a, b, iv
}

// Property P1: the computed value lies in the range of correct values, for
// every convergent algorithm, any correct multiset, and any τ adversarial
// values per receiver.
func TestQuickP1(t *testing.T) {
	f := func(correctRaw []float64, byzRaw []float64, tauRaw uint8) bool {
		tau := int(tauRaw)%3 + 1
		var correct []float64
		for _, v := range correctRaw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e30 {
				correct = append(correct, v)
			}
		}
		// Need enough correct values for τ trimming to leave a survivor.
		if len(correct) < 2*tau+1 {
			return true
		}
		byz := make([]float64, 0, tau)
		for _, v := range byzRaw {
			if len(byz) == tau {
				break
			}
			if !math.IsNaN(v) {
				byz = append(byz, v)
			}
		}
		view := multiset.MustFromValues(append(append([]float64{}, correct...), byz...)...)
		iv, _ := multiset.MustFromValues(correct...).Range()
		for _, algo := range All() { // P1 holds even for Median
			v, err := algo.Apply(view, tau)
			if err != nil {
				return false
			}
			if !iv.ContainsWithin(v, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property P2: for the convergent algorithms, two receivers sharing all but
// asym ≤ τ values compute results within the guaranteed contraction of the
// correct diameter.
func TestQuickP2Contraction(t *testing.T) {
	f := func(correctRaw []float64, byzARaw, byzBRaw []float64, tauRaw uint8) bool {
		tau := int(tauRaw)%2 + 1
		var correct []float64
		for _, v := range correctRaw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e30 {
				correct = append(correct, v)
			}
		}
		if len(correct) < 3*tau+1 { // bound-style slack: survivors > asym
			return true
		}
		take := func(raw []float64) []float64 {
			out := make([]float64, 0, tau)
			for _, v := range raw {
				if len(out) == tau {
					break
				}
				if !math.IsNaN(v) {
					out = append(out, v)
				}
			}
			for len(out) < tau {
				out = append(out, 0)
			}
			return out
		}
		viewA, viewB, iv := buildAdversarialViews(correct, take(byzARaw), take(byzBRaw))
		diam := iv.Width()
		m := len(correct) + tau
		for _, algo := range Convergent() {
			c, ok := algo.Contraction(m, tau, tau)
			if !ok {
				continue
			}
			va, err := algo.Apply(viewA, tau)
			if err != nil {
				return false
			}
			vb, err := algo.Apply(viewB, tau)
			if err != nil {
				return false
			}
			if math.Abs(va-vb) > c*diam+1e-9*math.Max(1, diam) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
