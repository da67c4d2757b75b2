package core

import (
	"strings"
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

func TestViolationString(t *testing.T) {
	v := Violation{Round: 3, Kind: "P1", Process: 2, Partner: -1, Detail: "outside"}
	s := v.String()
	for _, want := range []string{"round 3", "P1", "p2", "outside"} {
		if !strings.Contains(s, want) {
			t.Errorf("Violation.String() = %q missing %q", s, want)
		}
	}
}

func TestAboveBound(t *testing.T) {
	cfg := Config{Model: mobile.M1Garay, N: 9, F: 2}
	if !cfg.AboveBound() {
		t.Error("9 > 8 should be above bound")
	}
	cfg.N = 8
	if cfg.AboveBound() {
		t.Error("8 = 4f should not be above bound")
	}
}

// TestEquivalenceCertificateFields pins the certificate arithmetic for a
// hand-computed round.
func TestEquivalenceCertificateFields(t *testing.T) {
	c := EquivalenceCertificate{
		Round:          5,
		MobileCorrect:  7,
		StaticCorrect:  7,
		BoundSatisfied: true,
		CorrectValues:  true,
	}
	if !c.Equivalent() {
		t.Error("satisfied certificate not equivalent")
	}
	c.CorrectValues = false
	if c.Equivalent() {
		t.Error("incorrect values still equivalent")
	}
	c.CorrectValues = true
	c.MobileCorrect = 6
	if c.Equivalent() {
		t.Error("fewer correct tuples still equivalent")
	}
}

// TestAdversaryContractViolations verifies the engine rejects adversaries
// breaking their placement contract instead of silently mis-simulating.
func TestAdversaryContractViolations(t *testing.T) {
	bad := badPlacementAdversary{}
	cfg := Config{
		Model:     mobile.M1Garay,
		N:         9,
		F:         2,
		Algorithm: msr.FTA{},
		Adversary: bad,
		Inputs:    make([]float64, 9),
		Epsilon:   1e-3,
	}
	if _, err := Run(cfg); err == nil {
		t.Error("oversize placement accepted")
	}
}

// badPlacementAdversary places more agents than it has.
type badPlacementAdversary struct{}

func (badPlacementAdversary) Name() string { return "bad" }
func (badPlacementAdversary) Place(v *mobile.View) []int {
	out := make([]int, v.F+1)
	for i := range out {
		out[i] = i
	}
	return out
}
func (badPlacementAdversary) LeaveBehind(*mobile.View, int) float64                 { return 0 }
func (badPlacementAdversary) RoundDirectives(*mobile.RoundView, *mobile.Directives) {}
