package mobile

import (
	"testing"

	"mbfaa/internal/mixedmode"
)

func TestMixedModeAdversaryRoles(t *testing.T) {
	census := mixedmode.Counts{Asymmetric: 1, Symmetric: 1, Benign: 1}
	adv := NewMixedMode(census)
	if adv.Name() != "mixedmode" {
		t.Errorf("Name = %q", adv.Name())
	}
	// n=7 (bound 3+2+1=6, +1): low camp at 0 (indices 3,4), high at 1.
	inputs, err := MixedModeLayout(census, 7, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := testView(t, M4Buhrman, 0, 3, inputs, allCorrect(7))

	placement := adv.Place(v)
	if len(placement) != 3 || placement[0] != 0 || placement[2] != 2 {
		t.Errorf("placement = %v, want [0 1 2]", placement)
	}

	// Process 0: asymmetric — splits camps.
	lowReceiver, highReceiver := 3, 6
	d := scriptOf(adv, v, false, 0, 1, 2)
	if val, omit := d.At(0, lowReceiver); omit || val != 0 {
		t.Errorf("asymmetric to low = %v,%v", val, omit)
	}
	if val, omit := d.At(0, highReceiver); omit || val != 1 {
		t.Errorf("asymmetric to high = %v,%v", val, omit)
	}
	// Process 1: symmetric — same (wrong) value to everyone.
	vLow, _ := d.At(1, lowReceiver)
	vHigh, _ := d.At(1, highReceiver)
	if vLow != vHigh || vLow != 1 {
		t.Errorf("symmetric values differ: %v vs %v", vLow, vHigh)
	}
	// Process 2: benign — omits.
	if _, omit := d.At(2, lowReceiver); !omit {
		t.Error("benign process sent a value")
	}
	// LeaveBehind exists for interface completeness: agents never move.
	if lb := adv.LeaveBehind(v, 0); lb != 1 {
		t.Errorf("LeaveBehind = %v", lb)
	}
}

func TestMixedModeLayoutGeometry(t *testing.T) {
	census := mixedmode.Counts{Asymmetric: 2, Symmetric: 1, Benign: 1}
	// bound = 6+2+1 = 9; at the bound: rest = 9-4 = 5, low = a+s = 3.
	inputs, err := MixedModeLayout(census, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lowCount, highCount := 0, 0
	for i := census.Total(); i < len(inputs); i++ {
		if inputs[i] == 0 {
			lowCount++
		} else {
			highCount++
		}
	}
	if lowCount != 3 || highCount != 2 {
		t.Errorf("camps = %d/%d, want 3/2 (the freezing geometry)", lowCount, highCount)
	}
	if _, err := MixedModeLayout(census, 5, 0, 1); err == nil {
		t.Error("n too small accepted")
	}
	if _, err := MixedModeLayout(mixedmode.Counts{Asymmetric: -1}, 9, 0, 1); err == nil {
		t.Error("invalid census accepted")
	}
}

func TestMixedModePlacementCappedByF(t *testing.T) {
	adv := NewMixedMode(mixedmode.Counts{Asymmetric: 3})
	votes := make([]float64, 6)
	v := testView(t, M4Buhrman, 0, 2, votes, allCorrect(6)) // engine F=2 < census 3
	if got := adv.Place(v); len(got) != 2 {
		t.Errorf("placement %v exceeds engine F", got)
	}
}
