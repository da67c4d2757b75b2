package sweep

import (
	"strings"
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// TestAllRenderers exercises every Render method once with real data; the
// outputs are what cmd/mbfaa-tables prints.
func TestAllRenderers(t *testing.T) {
	opt := DefaultOptions()
	opt.FreezeRounds = 20

	t0, err := MixedModeBounds(1, 1, 1, msr.FTA{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := t0.Render(); !strings.Contains(out, "T0") || !strings.Contains(out, "(a=1, s=0, b=0)") {
		t.Errorf("T0 render:\n%s", out)
	}

	tr, err := Trajectory(mobile.M1Garay, 1, msr.FTM{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := tr.Render(); !strings.Contains(out, "F1") {
		t.Errorf("F1 render:\n%s", out)
	}

	rv, err := RoundsVsN(mobile.M4Buhrman, 1, 3, msr.FTM{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := rv.Render(); !strings.Contains(out, "F2") {
		t.Errorf("F2 render:\n%s", out)
	}

	ab, err := Ablation(1, opt, msr.Convergent())
	if err != nil {
		t.Fatal(err)
	}
	if out := ab.Render(); !strings.Contains(out, "F3") {
		t.Errorf("F3 render:\n%s", out)
	}

	mv, err := MobileVsStatic(mobile.M1Garay, 1, msr.FTA{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := mv.Render(); !strings.Contains(out, "F4") {
		t.Errorf("F4 render:\n%s", out)
	}
}

// TestOkPredicatesRejectBadData covers the negative branches of the shape
// predicates: a result that contradicts the paper must be flagged.
func TestOkPredicatesRejectBadData(t *testing.T) {
	t2 := &Table2Result{Cells: []Table2Cell{{AboveBound: true, Converged: false}}}
	if t2.Ok() {
		t.Error("Table2.Ok accepted a non-converging above-bound cell")
	}
	if (&Table2Result{}).Ok() {
		t.Error("empty Table2 accepted")
	}

	t0 := &MixedModeResult{Cells: []MixedModeCell{{AboveBound: false, Converged: true}}}
	if t0.Ok() {
		t.Error("MixedMode.Ok accepted convergence below the bound")
	}
	if (&MixedModeResult{}).Ok() {
		t.Error("empty MixedMode accepted")
	}

	t1 := &Table1Result{Rows: []Table1Row{{Match: false}}}
	if t1.Ok() {
		t.Error("Table1.Ok accepted a mismatched row")
	}
	if (&Table1Result{}).Ok() {
		t.Error("empty Table1 accepted")
	}

	mv := &MobileVsStaticResult{MobileConverged: true}
	if mv.Ok() {
		t.Error("MobileVsStatic.Ok accepted a converging mobile arm at the bound")
	}

	es := &EpsilonSweepResult{Points: []EpsilonPoint{{Converged: false}}}
	if es.WithinPrediction() {
		t.Error("EpsilonSweep accepted a non-converged point")
	}
	if (&EpsilonSweepResult{}).WithinPrediction() {
		t.Error("empty EpsilonSweep accepted")
	}

	rvr := &RoundsVsNResult{Points: []RoundsVsNPoint{{Rounds: 1, Converged: true}, {Rounds: 5, Converged: true}}}
	if rvr.Monotone() {
		t.Error("Monotone accepted an increasing sequence")
	}

	abl := &AblationResult{Rows: []AblationRow{{Guaranteed: 0.5, WorstObserved: 0.9}}}
	if abl.GuaranteesHold() {
		t.Error("GuaranteesHold accepted an exceeded guarantee")
	}
	if (&AblationResult{}).GuaranteesHold() {
		t.Error("empty ablation accepted")
	}

	sr := &RobustnessResult{Seeds: 2, Converged: 1, AllValid: true, AllEpsOK: true}
	if sr.Ok() {
		t.Error("Robustness.Ok accepted a failed seed")
	}
}
