package mobile

import (
	"testing"

	"mbfaa/internal/mixedmode"
)

func TestModelTable2Bounds(t *testing.T) {
	tests := []struct {
		model Model
		f     int
		bound int
		trim  int
		asym  int
	}{
		{M1Garay, 1, 4, 1, 1},
		{M1Garay, 3, 12, 3, 3},
		{M2Bonnet, 1, 5, 2, 1},
		{M2Bonnet, 2, 10, 4, 2},
		{M3Sasaki, 1, 6, 2, 2},
		{M3Sasaki, 2, 12, 4, 4},
		{M4Buhrman, 1, 3, 1, 1},
		{M4Buhrman, 4, 12, 4, 4},
	}
	for _, tt := range tests {
		if got := tt.model.Bound(tt.f); got != tt.bound {
			t.Errorf("%v.Bound(%d) = %d, want %d", tt.model, tt.f, got, tt.bound)
		}
		if got := tt.model.RequiredN(tt.f); got != tt.bound+1 {
			t.Errorf("%v.RequiredN(%d) = %d, want %d", tt.model, tt.f, got, tt.bound+1)
		}
		if got := tt.model.Trim(tt.f); got != tt.trim {
			t.Errorf("%v.Trim(%d) = %d, want %d", tt.model, tt.f, got, tt.trim)
		}
		if got := tt.model.AsymmetricSenders(tt.f); got != tt.asym {
			t.Errorf("%v.AsymmetricSenders(%d) = %d, want %d", tt.model, tt.f, got, tt.asym)
		}
	}
}

func TestMaxFaultyInvertsBound(t *testing.T) {
	for _, m := range AllModels() {
		for f := 0; f <= 5; f++ {
			n := m.RequiredN(f)
			if got := m.MaxFaulty(n); got != f {
				t.Errorf("%v.MaxFaulty(%d) = %d, want %d", m, n, got, f)
			}
			if f > 0 {
				if got := m.MaxFaulty(n - 1); got != f-1 {
					t.Errorf("%v.MaxFaulty(%d) = %d, want %d", m, n-1, got, f-1)
				}
			}
		}
	}
}

func TestModelProperties(t *testing.T) {
	if !M1Garay.CuredAware() || !M4Buhrman.CuredAware() {
		t.Error("M1 and M4 cured processes are aware")
	}
	if M2Bonnet.CuredAware() || M3Sasaki.CuredAware() {
		t.Error("M2 and M3 cured processes are not aware")
	}
	if M1Garay.MovesWithMessages() || M2Bonnet.MovesWithMessages() || M3Sasaki.MovesWithMessages() {
		t.Error("only M4 moves with messages")
	}
	if !M4Buhrman.MovesWithMessages() {
		t.Error("M4 moves with messages")
	}
	for _, m := range AllModels() {
		if !m.Valid() {
			t.Errorf("%v should be valid", m)
		}
	}
	if Model(0).Valid() || Model(5).Valid() {
		t.Error("out-of-range models should be invalid")
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, m := range AllModels() {
		got, err := ByName(m.Short())
		if err != nil || got != m {
			t.Errorf("ByName(%s) = %v, %v", m.Short(), got, err)
		}
	}
	if _, err := ByName("M5"); err == nil {
		t.Error("unknown model name accepted")
	}
}

func TestMixedModeCensusTable1(t *testing.T) {
	tests := []struct {
		model Model
		want  mixedmode.Counts
	}{
		{M1Garay, mixedmode.Counts{Asymmetric: 2, Benign: 2}},
		{M2Bonnet, mixedmode.Counts{Asymmetric: 2, Symmetric: 2}},
		{M3Sasaki, mixedmode.Counts{Asymmetric: 4}},
		{M4Buhrman, mixedmode.Counts{Asymmetric: 2}},
	}
	for _, tt := range tests {
		got, err := tt.model.WorstCaseCensus(2)
		if err != nil {
			t.Fatalf("%v: %v", tt.model, err)
		}
		if got != tt.want {
			t.Errorf("%v.WorstCaseCensus(2) = %v, want %v", tt.model, got, tt.want)
		}
		// Table 2 emerges from Table 1 through the mixed-mode bound.
		if got.RequiredN() != tt.model.RequiredN(2) {
			t.Errorf("%v: census RequiredN %d != model RequiredN %d",
				tt.model, got.RequiredN(), tt.model.RequiredN(2))
		}
	}
}

func TestMixedModeCensusValidation(t *testing.T) {
	if _, err := M1Garay.MixedModeCensus(-1, 0); err == nil {
		t.Error("negative f accepted")
	}
	if _, err := M4Buhrman.MixedModeCensus(1, 1); err == nil {
		t.Error("M4 with cured processes accepted")
	}
	if _, err := Model(9).MixedModeCensus(1, 1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestCuredClassTable1Column(t *testing.T) {
	want := map[Model]mixedmode.Class{
		M1Garay:   mixedmode.ClassBenign,
		M2Bonnet:  mixedmode.ClassSymmetric,
		M3Sasaki:  mixedmode.ClassAsymmetric,
		M4Buhrman: mixedmode.ClassCorrect,
	}
	for m, c := range want {
		if got := m.CuredClass(); got != c {
			t.Errorf("%v.CuredClass() = %v, want %v", m, got, c)
		}
		if m.FaultyClass() != mixedmode.ClassAsymmetric {
			t.Errorf("%v.FaultyClass() should be asymmetric", m)
		}
	}
}

func TestCountStates(t *testing.T) {
	states := []State{StateCorrect, StateFaulty, StateCured, StateCorrect, StateFaulty}
	c := CountStates(states)
	if c != (Census{Correct: 2, Cured: 1, Faulty: 2}) {
		t.Errorf("CountStates = %+v", c)
	}
	ids := IdsInState(states, StateFaulty)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 4 {
		t.Errorf("IdsInState = %v", ids)
	}
}

func TestStateString(t *testing.T) {
	if StateCorrect.String() != "correct" || StateCured.String() != "cured" || StateFaulty.String() != "faulty" {
		t.Error("state strings wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state string wrong")
	}
}

func TestValidatePlacement(t *testing.T) {
	in := []int{3, 1}
	got, err := ValidatePlacement(nil, in, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("placement = %v, want sorted [1 3]", got)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("ValidatePlacement reordered its input: %v", in)
	}
	if _, err := ValidatePlacement(nil, []int{0, 1, 2}, 5, 2); err == nil {
		t.Error("oversize placement accepted")
	}
	if _, err := ValidatePlacement(nil, []int{5}, 5, 2); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if _, err := ValidatePlacement(nil, []int{1, 1}, 5, 2); err == nil {
		t.Error("duplicate placement accepted")
	}
	if got, err := ValidatePlacement(nil, nil, 5, 2); err != nil || len(got) != 0 {
		t.Errorf("empty placement: %v, %v", got, err)
	}

	// A destination with room is written in place and reused: the
	// per-round check allocates nothing.
	dst := make([]int, 1, 4)
	got, err = ValidatePlacement(dst, []int{4, 0, 2}, 5, 3)
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 || &got[0] != &dst[:1][0] {
		t.Errorf("placement into dst = %v, %v; want [0 2 4] over dst", got, err)
	}
	placement := []int{2, 0}
	if allocs := testing.AllocsPerRun(100, func() {
		got, err = ValidatePlacement(got, placement, 5, 2)
	}); allocs != 0 || err != nil {
		t.Errorf("ValidatePlacement into a sized buffer allocated %v times (err %v)", allocs, err)
	}
}

func TestModelStrings(t *testing.T) {
	if M1Garay.String() != "M1 (Garay)" || M1Garay.Short() != "M1" {
		t.Error("M1 strings wrong")
	}
	if Model(9).Short() != "M?9" {
		t.Error("unknown model short wrong")
	}
}
