package multiset

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromValuesSortsAndCopies(t *testing.T) {
	src := []float64{3, 1, 2}
	m, err := FromValues(src...)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99 // mutating the input must not affect the multiset
	want := []float64{1, 2, 3}
	got := m.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	got[0] = -1 // mutating the output must not affect the multiset
	if v, _ := m.Min(); v != 1 {
		t.Errorf("Min after caller mutation = %v, want 1", v)
	}
}

func TestFromValuesRejectsNaN(t *testing.T) {
	if _, err := FromValues(1, math.NaN(), 2); err == nil {
		t.Fatal("want ErrNaN, got nil")
	}
}

func TestFromValuesAllowsInfinities(t *testing.T) {
	m, err := FromValues(math.Inf(1), 0, math.Inf(-1))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Min(); !math.IsInf(v, -1) {
		t.Errorf("Min = %v, want -Inf", v)
	}
	if v, _ := m.Max(); !math.IsInf(v, 1) {
		t.Errorf("Max = %v, want +Inf", v)
	}
}

func TestEmptyMultiset(t *testing.T) {
	var m Multiset
	if !m.IsEmpty() || m.Len() != 0 {
		t.Error("zero value should be empty")
	}
	if _, ok := m.Min(); ok {
		t.Error("Min of empty should report !ok")
	}
	if _, ok := m.Max(); ok {
		t.Error("Max of empty should report !ok")
	}
	if _, ok := m.Mean(); ok {
		t.Error("Mean of empty should report !ok")
	}
	if _, ok := m.Median(); ok {
		t.Error("Median of empty should report !ok")
	}
	if _, ok := m.Midpoint(); ok {
		t.Error("Midpoint of empty should report !ok")
	}
	if _, ok := m.Range(); ok {
		t.Error("Range of empty should report !ok")
	}
	if d := m.Diameter(); d != 0 {
		t.Errorf("Diameter of empty = %v, want 0", d)
	}
	if s := m.String(); s != "{}" {
		t.Errorf("String of empty = %q, want {}", s)
	}
}

func TestRangeAndDiameter(t *testing.T) {
	tests := []struct {
		name   string
		values []float64
		lo, hi float64
		diam   float64
	}{
		{"singleton", []float64{5}, 5, 5, 0},
		{"pair", []float64{1, 4}, 1, 4, 3},
		{"negatives", []float64{-3, -7, 2}, -7, 2, 9},
		{"duplicates", []float64{2, 2, 2}, 2, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := MustFromValues(tt.values...)
			iv, ok := m.Range()
			if !ok {
				t.Fatal("Range !ok")
			}
			if iv.Lo != tt.lo || iv.Hi != tt.hi {
				t.Errorf("Range = [%v,%v], want [%v,%v]", iv.Lo, iv.Hi, tt.lo, tt.hi)
			}
			if d := m.Diameter(); d != tt.diam {
				t.Errorf("Diameter = %v, want %v", d, tt.diam)
			}
			if w := iv.Width(); w != tt.diam {
				t.Errorf("Width = %v, want %v", w, tt.diam)
			}
		})
	}
}

func TestStatistics(t *testing.T) {
	m := MustFromValues(1, 2, 3, 4)
	if v, _ := m.Mean(); v != 2.5 {
		t.Errorf("Mean = %v, want 2.5", v)
	}
	if v, _ := m.Median(); v != 2.5 {
		t.Errorf("even Median = %v, want 2.5", v)
	}
	if v, _ := m.Midpoint(); v != 2.5 {
		t.Errorf("Midpoint = %v, want 2.5", v)
	}
	odd := MustFromValues(1, 2, 10)
	if v, _ := odd.Median(); v != 2 {
		t.Errorf("odd Median = %v, want 2", v)
	}
	if v, _ := odd.Midpoint(); v != 5.5 {
		t.Errorf("Midpoint = %v, want 5.5", v)
	}
}

func TestTrim(t *testing.T) {
	m := MustFromValues(0, 1, 2, 3, 4, 5)
	red, err := m.Trim(2)
	if err != nil {
		t.Fatal(err)
	}
	if !red.Equal(MustFromValues(2, 3)) {
		t.Errorf("Trim(2) = %v, want {2, 3}", red)
	}
	if _, err := m.Trim(3); err == nil {
		t.Error("Trim(3) of 6 values should fail (nothing survives)")
	}
	if _, err := m.Trim(-1); err == nil {
		t.Error("negative trim should fail")
	}
	same, err := m.Trim(0)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Equal(m) {
		t.Error("Trim(0) should be identity")
	}
}

func TestTrimRemovesByzantineExtremes(t *testing.T) {
	// The reduction must defuse arbitrarily large adversarial values.
	m := MustFromValues(math.Inf(-1), 0.4, 0.5, 0.6, math.Inf(1))
	red, err := m.Trim(1)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := red.Range()
	if iv.Lo != 0.4 || iv.Hi != 0.6 {
		t.Errorf("trimmed range = [%v,%v], want [0.4,0.6]", iv.Lo, iv.Hi)
	}
}

// selected collects the every-step-th selection MeanEvery averages.
func selected(m Multiset, step int) []float64 {
	var out []float64
	m.eachSelected(step, func(v float64) { out = append(out, v) })
	return out
}

func TestSelectEvery(t *testing.T) {
	m := MustFromValues(0, 1, 2, 3, 4, 5, 6)
	tests := []struct {
		step int
		want []float64
	}{
		{1, []float64{0, 1, 2, 3, 4, 5, 6}},
		{2, []float64{0, 2, 4, 6}},
		{3, []float64{0, 3, 6}},
		{4, []float64{0, 4, 6}}, // last element always included
		{10, []float64{0, 6}},
	}
	for _, tt := range tests {
		if got := selected(m, tt.step); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("selection at step %d = %v, want %v", tt.step, got, tt.want)
		}
	}
	if _, err := m.MeanEvery(0); err == nil {
		t.Error("step 0 should fail")
	}
}

func TestAdd(t *testing.T) {
	a := MustFromValues(1, 2)
	added, err := a.Add(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !added.Equal(MustFromValues(1, 1.5, 2)) {
		t.Errorf("Add = %v", added)
	}
	if _, err := a.Add(math.NaN()); err == nil {
		t.Error("Add(NaN) should fail")
	}
}

func TestAt(t *testing.T) {
	m := MustFromValues(5, 1, 3)
	if v, err := m.At(1); err != nil || v != 3 {
		t.Errorf("At(1) = %v, %v; want 3", v, err)
	}
	if _, err := m.At(-1); err == nil {
		t.Error("At(-1) should fail")
	}
	if _, err := m.At(3); err == nil {
		t.Error("At(len) should fail")
	}
}

func TestIntervalOps(t *testing.T) {
	iv := Interval{Lo: 1, Hi: 3}
	if !iv.Contains(1) || !iv.Contains(3) || !iv.Contains(2) {
		t.Error("closed interval should contain endpoints and interior")
	}
	if iv.Contains(0.999) || iv.Contains(3.001) {
		t.Error("interval should exclude exterior")
	}
}

func TestContainsWithin(t *testing.T) {
	iv := Interval{Lo: 21.67375549545516, Hi: 21.890567911668647}
	justBelow := math.Nextafter(iv.Lo, math.Inf(-1))
	if iv.Contains(justBelow) {
		t.Fatal("sanity: one ulp below should fail exact containment")
	}
	if !iv.ContainsWithin(justBelow, 1e-12) {
		t.Error("one ulp below should pass tolerant containment")
	}
	if iv.ContainsWithin(iv.Lo-0.1, 1e-12) {
		t.Error("a real violation must still fail")
	}
}

func TestString(t *testing.T) {
	m := MustFromValues(1, 0, 1)
	if got := m.String(); got != "{0, 1, 1}" {
		t.Errorf("String = %q", got)
	}
}

func TestEqual(t *testing.T) {
	a := MustFromValues(1, 2, 2)
	if !a.Equal(MustFromValues(2, 1, 2)) {
		t.Error("order must not matter")
	}
	if a.Equal(MustFromValues(1, 2)) {
		t.Error("different multiplicity must differ")
	}
	if a.Equal(MustFromValues(1, 2, 3)) {
		t.Error("different values must differ")
	}
}

// Property: construction is permutation-invariant and always sorted.
func TestQuickSortedInvariant(t *testing.T) {
	f := func(values []float64) bool {
		clean := values[:0]
		for _, v := range values {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		m, err := FromValues(clean...)
		if err != nil {
			return false
		}
		got := m.Values()
		return sort.Float64sAreSorted(got) && len(got) == len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any multiset and feasible τ, the trimmed multiset is
// contained in the original range and its diameter never grows.
func TestQuickTrimShrinks(t *testing.T) {
	f := func(values []float64, tauRaw uint8) bool {
		clean := values[:0]
		for _, v := range values {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := MustFromValues(clean...)
		tau := int(tauRaw) % ((len(clean) + 1) / 2)
		if 2*tau >= len(clean) {
			return true
		}
		red, err := m.Trim(tau)
		if err != nil {
			return false
		}
		full, _ := m.Range()
		sub, ok := red.Range()
		if !ok {
			return false
		}
		return full.Lo <= sub.Lo && sub.Hi <= full.Hi && red.Diameter() <= m.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the mean always lies in the range (the arithmetic heart of P1).
func TestQuickMeanInRange(t *testing.T) {
	f := func(values []float64) bool {
		clean := values[:0]
		for _, v := range values {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := MustFromValues(clean...)
		mean, ok := m.Mean()
		if !ok {
			return false
		}
		iv, _ := m.Range()
		return iv.ContainsWithin(mean, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the every-step-th selection preserves min and max, so it spans
// the full reduced range (required by the Dolev convergence proof).
func TestQuickSelectSpansRange(t *testing.T) {
	f := func(values []float64, stepRaw uint8) bool {
		clean := values[:0]
		for _, v := range values {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := MustFromValues(clean...)
		step := int(stepRaw)%8 + 1
		sel := selected(m, step)
		mMin, _ := m.Min()
		mMax, _ := m.Max()
		return mMin == sel[0] && mMax == sel[len(sel)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFromOwned(t *testing.T) {
	backing := []float64{3, 1, 2}
	m, err := FromOwned(backing)
	if err != nil {
		t.Fatal(err)
	}
	// The slice is sorted in place and becomes the backing store.
	if backing[0] != 1 || backing[1] != 2 || backing[2] != 3 {
		t.Errorf("FromOwned did not sort in place: %v", backing)
	}
	if !m.Equal(MustFromValues(1, 2, 3)) {
		t.Errorf("FromOwned = %v, want {1, 2, 3}", m)
	}

	if _, err := FromOwned([]float64{1, math.NaN()}); err == nil {
		t.Error("FromOwned should reject NaN")
	}

	empty, err := FromOwned(nil)
	if err != nil || !empty.IsEmpty() {
		t.Errorf("FromOwned(nil) = %v, %v; want empty multiset", empty, err)
	}
}

func TestFromOwnedMatchesFromValues(t *testing.T) {
	f := func(values []float64) bool {
		clean := make([]float64, 0, len(values))
		for _, v := range values {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		a, err := FromValues(clean...)
		if err != nil {
			return false
		}
		b, err := FromOwned(append([]float64(nil), clean...))
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortedDraw returns a non-decreasing slice over {−Inf, −1, ±0, 1, 2, +Inf}
// built level by level, so zeros of both signs interleave at random.
func sortedDraw(rng *rand.Rand, maxRun int) []float64 {
	var out []float64
	for _, level := range []float64{math.Inf(-1), -1, 0, 1, 2, math.Inf(1)} {
		for i := rng.Intn(maxRun + 1); i > 0; i-- {
			v := level
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			out = append(out, v)
		}
	}
	return out
}

// TestSortOwnedSortedInput pins the one-pass acceptance of a sorted input:
// FromOwned and WithPatch must leave it exactly as sort.Float64s would,
// bit for bit, across pdqsort's insertion, median and ninther sizes.
func TestSortOwnedSortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := MustFromValues(0, 1)
	for trial := 0; trial < 2000; trial++ {
		in := sortedDraw(rng, 1+trial%70)
		want := append([]float64(nil), in...)
		sort.Float64s(want)

		owned := append([]float64(nil), in...)
		if _, err := FromOwned(owned); err != nil {
			t.Fatal(err)
		}
		patch := append([]float64(nil), in...)
		if _, err := base.WithPatch(patch); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			w := math.Float64bits(want[i])
			if math.Float64bits(owned[i]) != w || math.Float64bits(patch[i]) != w {
				t.Fatalf("trial %d (len %d): index %d is FromOwned %v / WithPatch %v, sort.Float64s %v",
					trial, len(in), i, owned[i], patch[i], want[i])
			}
		}
	}
}

// TestSortOwnedNaNLeavesInput pins that a NaN anywhere — first, after a
// sorted prefix, last, or after a descent — is rejected before the slice
// is touched.
func TestSortOwnedNaNLeavesInput(t *testing.T) {
	nan := math.NaN()
	cases := [][]float64{
		{nan},
		{nan, 1, 2},
		{math.Inf(-1), math.Copysign(0, -1), 0, nan, 3, -5},
		{1, 2, 2, 3, nan},
		{3, 1, 2, nan, 0},
	}
	base := MustFromValues(0, 1)
	for _, in := range cases {
		for name, build := range map[string]func([]float64) error{
			"FromOwned": func(s []float64) error { _, err := FromOwned(s); return err },
			"WithPatch": func(s []float64) error { _, err := base.WithPatch(s); return err },
		} {
			s := append([]float64(nil), in...)
			if err := build(s); !errors.Is(err, ErrNaN) {
				t.Errorf("%s(%v) error = %v, want ErrNaN", name, in, err)
			}
			for i := range in {
				if math.Float64bits(s[i]) != math.Float64bits(in[i]) {
					t.Errorf("%s(%v) modified the rejected slice: %v", name, in, s)
					break
				}
			}
		}
	}
}
