package multiset

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// The two-run form must be indistinguishable from the single-run multiset
// over MergeSortedInto(base, patch): every method, bit for bit, with ties
// broken base-first (so a −0 in the base stays ahead of a +0 in the patch).
// That holds for both patch shapes, a slice (WithPatch) and a constant run
// (WithRepeated).

var negZero = math.Copysign(0, -1)

// twoRunAlphabet is the value pool the fuzz target draws from: the
// extremes, both zeros, a subnormal, and a coarse grid that forces ties.
var twoRunAlphabet = []float64{
	math.Inf(-1), -math.MaxFloat64, -1e300, negZero, 0, math.SmallestNonzeroFloat64,
	1e300, math.MaxFloat64, math.Inf(1),
}

// decodeRuns splits data into a base and a patch: the top bit of each byte
// picks the run, the rest picks a value.
func decodeRuns(data []byte) (base, patch []float64) {
	for _, b := range data {
		k := int(b & 0x7f)
		var v float64
		if k < len(twoRunAlphabet) {
			v = twoRunAlphabet[k]
		} else {
			v = float64(k%9)/4 - 1
		}
		if b&0x80 == 0 {
			base = append(base, v)
		} else {
			patch = append(patch, v)
		}
	}
	return base, patch
}

// sameBits compares two results bit for bit; NaN (the mean of −Inf and
// +Inf) matches NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkTwoRun builds base ∪ patch both ways and compares every method.
func checkTwoRun(t *testing.T, base, patch []float64, tau, step int) {
	t.Helper()
	b, err := FromValues(base...)
	if err != nil {
		t.Fatal(err)
	}
	two, err := b.WithPatch(append([]float64(nil), patch...))
	if err != nil {
		t.Fatalf("WithPatch(%v): %v", patch, err)
	}
	sortedPatch := append([]float64(nil), patch...)
	sort.Float64s(sortedPatch)
	ref := of(MergeSortedInto(nil, b.Values(), sortedPatch), run{})
	sameMultiset(t, two, ref, tau, step, 0)
}

// checkConstantRun builds base ∪ {v × count} both ways — as a constant run
// and as the merge with count copies — and compares every method.
func checkConstantRun(t *testing.T, base []float64, v float64, count, tau, step int) {
	t.Helper()
	b, err := FromValues(base...)
	if err != nil {
		t.Fatal(err)
	}
	value := v
	two, err := b.WithRepeated(&value, count)
	if err != nil {
		t.Fatalf("WithRepeated(%v, %d): %v", v, count, err)
	}
	if count > 0 && two.npatch >= 0 {
		t.Fatalf("WithRepeated(%v, %d) is not a constant run: npatch %d", v, count, two.npatch)
	}
	copies := make([]float64, count)
	for i := range copies {
		copies[i] = v
	}
	ref := of(MergeSortedInto(nil, b.Values(), copies), run{})
	sameMultiset(t, two, ref, tau, step, 0)
}

// sameMultiset asserts got (two-run) and want (single-run) agree on every
// method; depth bounds the recursion through Trim and WithPatch.
func sameMultiset(t *testing.T, got, want Multiset, tau, step, depth int) {
	t.Helper()
	fail := func(method string, g, w any) {
		t.Helper()
		a, b := got.runs()
		t.Fatalf("%s: two-run %v (runs %v + %v) != single-run %v (%v)", method, g, a, b, w, want)
	}
	if got.Len() != want.Len() || got.IsEmpty() != want.IsEmpty() {
		fail("Len", got.Len(), want.Len())
	}
	if g, w := got.Values(), want.Values(); !sameValues(g, w) {
		fail("Values", g, w)
	}
	for i := -1; i <= want.Len(); i++ {
		g, gErr := got.At(i)
		w, wErr := want.At(i)
		if (gErr == nil) != (wErr == nil) || !sameBits(g, w) {
			fail("At", g, w)
		}
	}
	type stat func(Multiset) (float64, bool)
	for name, fn := range map[string]stat{
		"Min": Multiset.Min, "Max": Multiset.Max, "Mean": Multiset.Mean,
		"Median": Multiset.Median, "Midpoint": Multiset.Midpoint,
	} {
		g, gok := fn(got)
		w, wok := fn(want)
		if gok != wok || !sameBits(g, w) {
			fail(name, g, w)
		}
	}
	if g, w := got.Diameter(), want.Diameter(); !sameBits(g, w) {
		fail("Diameter", g, w)
	}
	gr, gok := got.Range()
	wr, wok := want.Range()
	if gok != wok || !sameBits(gr.Lo, wr.Lo) || !sameBits(gr.Hi, wr.Hi) {
		fail("Range", gr, wr)
	}
	for _, s := range []int{0, 1, 2, step} {
		gm, gmErr := got.MeanEvery(s)
		wm, wmErr := want.MeanEvery(s)
		if (gmErr == nil) != (wmErr == nil) || !sameBits(gm, wm) {
			fail("MeanEvery", gm, wm)
		}
		if s < 1 {
			continue
		}
		g, w := selected(got, s), selected(want, s)
		if !sameValues(g, w) {
			fail("selection", g, w)
		}
		// MeanEvery must be the mean of the selection it averages.
		if sel, ok := of(w, run{}).Mean(); wmErr == nil && (!ok || !sameBits(sel, wm)) {
			fail("MeanEvery vs selection mean", wm, sel)
		}
	}
	for _, v := range append([]float64{0.5, math.NaN()}, twoRunAlphabet...) {
		if math.IsNaN(v) {
			continue
		}
		g, _ := got.Add(v)
		w, _ := want.Add(v)
		if !sameValues(g.Values(), w.Values()) {
			fail("Add", g, w)
		}
	}
	if !got.Equal(want) || !want.Equal(got) || !got.Equal(got) {
		fail("Equal", got, want)
	}
	if g, w := got.String(), want.String(); g != w {
		fail("String", g, w)
	}
	if depth > 0 {
		return
	}
	maxTau := (want.Len() - 1) / 2
	for _, tr := range []int{-1, 0, tau, maxTau, maxTau + 1} {
		g, gErr := got.Trim(tr)
		w, wErr := want.Trim(tr)
		if (gErr == nil) != (wErr == nil) {
			fail("Trim error", gErr, wErr)
		}
		if gErr == nil {
			// A constant run's survivors are again a constant run.
			if got.npatch < 0 && g.npatch > 0 {
				fail("Trim of a constant run", g.npatch, got.npatch)
			}
			sameMultiset(t, g, w, tau, step, depth+1)
		}
	}
	extra := []float64{1, negZero, math.Inf(-1)}
	g, gErr := got.WithPatch(append([]float64(nil), extra...))
	w, wErr := want.WithPatch(append([]float64(nil), extra...))
	if gErr != nil || wErr != nil {
		fail("WithPatch on a patched multiset", gErr, wErr)
	}
	sameMultiset(t, g, w, tau, step, depth+1)
	repeated := 0.0
	g, gErr = got.WithRepeated(&repeated, 3)
	w, wErr = want.WithPatch([]float64{0, 0, 0})
	if gErr != nil || wErr != nil {
		fail("WithRepeated on a patched multiset", gErr, wErr)
	}
	sameMultiset(t, g, w, tau, step, depth+1)
}

func TestTwoRunMatchesMerged(t *testing.T) {
	inf := math.Inf(1)
	tests := []struct {
		name        string
		base, patch []float64
		tau, step   int
	}{
		{"empty both", nil, nil, 0, 1},
		{"empty base", nil, []float64{3, 1, 2}, 1, 1},
		{"empty patch", []float64{3, 1, 2}, nil, 1, 1},
		{"interleaved", []float64{0, 2, 4, 6, 8}, []float64{7, 1, 5, 3}, 2, 2},
		{"patch all below", []float64{5, 6, 7}, []float64{1, 2}, 2, 1},
		{"patch all above", []float64{1, 2, 3}, []float64{8, 9}, 1, 3},
		{"duplicates across runs", []float64{1, 1, 2, 2}, []float64{2, 1, 2}, 3, 2},
		{"minus zero in base", []float64{negZero, 1}, []float64{0, -1}, 1, 1},
		{"minus zero in patch", []float64{0, 1}, []float64{negZero, -1}, 1, 1},
		{"zeros only", []float64{negZero, 0, negZero}, []float64{0, negZero}, 2, 2},
		{"infinities in patch", []float64{0.4, 0.5, 0.6}, []float64{inf, -inf}, 1, 1},
		{"infinities split", []float64{-inf, 0.5}, []float64{inf, inf, -inf}, 2, 1},
		{"tau at cap", []float64{1, 2, 3, 4}, []float64{0, 5, 6}, 3, 2},
		{"tau above cap", []float64{1, 2, 3}, []float64{0, 5}, 4, 5},
		{"sim shape", make([]float64, 20), []float64{0, 1, -1, 0, 2, -2, 0, 3}, 7, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkTwoRun(t, tt.base, tt.patch, tt.tau, tt.step)
		})
	}
}

func TestConstantRunMatchesMerged(t *testing.T) {
	inf := math.Inf(1)
	tests := []struct {
		name      string
		base      []float64
		v         float64
		count     int
		tau, step int
	}{
		{"empty both", nil, 1, 0, 0, 1},
		{"empty base", nil, 2, 3, 1, 1},
		{"count 0", []float64{3, 1, 2}, 5, 0, 1, 1},
		{"run inside base", []float64{0, 2, 4, 6, 8}, 5, 4, 2, 2},
		{"run below base", []float64{5, 6, 7}, 1, 2, 2, 1},
		{"run above base", []float64{1, 2, 3}, 9, 2, 1, 3},
		{"run tied with base", []float64{1, 2, 2, 3}, 2, 3, 3, 2},
		{"minus zero base, plus zero run", []float64{negZero, negZero, 1}, 0, 3, 1, 1},
		{"plus zero base, minus zero run", []float64{-1, 0, 0}, negZero, 2, 1, 2},
		{"plus infinity run", []float64{0.4, 0.5, 0.6}, inf, 3, 1, 1},
		{"minus infinity run", []float64{-inf, 0.5, inf}, -inf, 4, 2, 1},
		{"tau at cap", []float64{1, 2, 3, 4}, 0, 3, 3, 2},
		{"tau trims into run", []float64{1, 2}, 1.5, 5, 3, 1},
		{"sim shape", make([]float64, 20), 1, 8, 7, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkConstantRun(t, tt.base, tt.v, tt.count, tt.tau, tt.step)
		})
	}
}

// TestTwoRunRandom is the fuzz target's check over seeded random runs, so
// plain `go test` covers far more shapes than the seed corpus.
func TestTwoRunRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		base, patch := decodeRuns(data)
		tau, step := rng.Intn(24), 1+rng.Intn(6)
		checkTwoRun(t, base, patch, tau, step)
		v, count := constantRunOf(patch)
		checkConstantRun(t, base, v, count, tau, step)
	}
}

// constantRunOf turns a decoded patch into a constant run's parameters:
// its first value, repeated once per patch value.
func constantRunOf(patch []float64) (v float64, count int) {
	if len(patch) == 0 {
		return 1, 0
	}
	return patch[0], len(patch)
}

func TestWithRepeatedRejects(t *testing.T) {
	base := MustFromValues(1, 2, 3)
	nan := math.NaN()
	for _, count := range []int{0, 1, 4} {
		if _, err := base.WithRepeated(&nan, count); !errors.Is(err, ErrNaN) {
			t.Errorf("WithRepeated(NaN, %d) error = %v, want ErrNaN", count, err)
		}
	}
	one := 1.0
	if _, err := base.WithRepeated(&one, -1); err == nil {
		t.Error("WithRepeated(1, -1) accepted a negative count")
	}
}

// TestMultisetFourWords pins the struct size the Multiset comment argues
// for: four words keep it in registers across calls.
func TestMultisetFourWords(t *testing.T) {
	if got, want := unsafe.Sizeof(Multiset{}), 4*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("Multiset is %d bytes, want %d (four words)", got, want)
	}
}

func TestWithPatchRejectsNaN(t *testing.T) {
	base := MustFromValues(1, 2, 3)
	patch := []float64{5, math.NaN(), 4}
	if _, err := base.WithPatch(patch); !errors.Is(err, ErrNaN) {
		t.Fatalf("WithPatch(NaN) error = %v, want ErrNaN", err)
	}
	if patch[0] != 5 || patch[2] != 4 {
		t.Errorf("rejected patch was reordered: %v", patch)
	}
}

// TestMergeSortedIntoMatchesSort cross-checks the linear merge against a
// full sort of the concatenation on randomized inputs, including
// duplicates and infinities.
func TestMergeSortedIntoMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		base, patch := decodeRuns(func() []byte {
			d := make([]byte, rng.Intn(24))
			rng.Read(d)
			return d
		}())
		// The two zeros are distinct bits that a sort may order either
		// way; compare them as values here (sameMultiset pins the bits).
		sort.Float64s(base)
		sort.Float64s(patch)
		want := append(append([]float64(nil), base...), patch...)
		sort.Float64s(want)
		got := MergeSortedInto(make([]float64, 0, len(want)), base, patch)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: merged[%d] = %v, want %v (a=%v b=%v)", trial, i, got[i], want[i], base, patch)
			}
		}
	}
}

// FuzzTwoRun checks every method of the two-run form against the merged
// single-run multiset, for the decoded slice patch and for a constant run
// of its first value, and that a NaN in either patch shape is rejected.
func FuzzTwoRun(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{3, 0x84, 20, 0x95, 0x96}, uint8(1), uint8(1))
	f.Add([]byte{0, 8, 0x80, 0x88, 30, 31, 0xa0}, uint8(2), uint8(2))
	f.Add([]byte{0x83, 0x84, 0x83, 3, 4}, uint8(9), uint8(3))
	// A sorted patch with −0/+0 interleaved and both infinities, and a
	// constant patch tied with base values: the one-pass acceptance path.
	f.Add([]byte{0x80, 0x83, 0x84, 0x83, 0x84, 0x86, 0x88, 3, 4, 16}, uint8(3), uint8(2))
	f.Add([]byte{16, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 16, 2}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tau, step uint8) {
		base, patch := decodeRuns(data)
		checkTwoRun(t, base, patch, int(tau%32), 1+int(step%8))
		v, count := constantRunOf(patch)
		checkConstantRun(t, base, v, count, int(tau%32), 1+int(step%8))
		m := MustFromValues(base...)
		if _, err := m.WithPatch(append(patch, math.NaN())); !errors.Is(err, ErrNaN) {
			t.Fatalf("WithPatch accepted a NaN: %v", err)
		}
		nan := math.NaN()
		if _, err := m.WithRepeated(&nan, count); !errors.Is(err, ErrNaN) {
			t.Fatalf("WithRepeated accepted a NaN: %v", err)
		}
	})
}
