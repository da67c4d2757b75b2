package mbfaa_test

import (
	"errors"
	"strings"
	"testing"

	"mbfaa"
)

func TestRunMinimal(t *testing.T) {
	res, err := mbfaa.Run(
		mbfaa.WithModel(mbfaa.M2),
		mbfaa.WithSystem(11, 2),
		mbfaa.WithInputs(20.1, 20.4, 19.9, 20.0, 20.2, 20.3, 19.8, 20.1, 20.0, 20.2, 19.9),
		mbfaa.WithEpsilon(0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("doc example did not converge")
	}
	if !res.EpsilonAgreement(0.05) {
		t.Errorf("decision diameter %g > 0.05", res.DecisionDiameter())
	}
	if !res.Valid() {
		t.Error("validity violated")
	}
}

func TestRunDefaults(t *testing.T) {
	// Model defaults to M1, algorithm to FTM, adversary to rotating; n is
	// inferred from the inputs.
	inputs := make([]float64, 9) // 9 > 4·2
	for i := range inputs {
		inputs[i] = float64(i) / 10
	}
	res, err := mbfaa.Run(
		mbfaa.WithInputs(inputs...),
		mbfaa.WithSystem(9, 2),
		mbfaa.WithEpsilon(1e-3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("defaults did not converge")
	}
}

func TestRunInfersNFromInputs(t *testing.T) {
	res, err := mbfaa.Run(
		mbfaa.WithModel(mbfaa.M4),
		mbfaa.WithInputs(1, 2, 3, 4), // n=4 > 3·1
		mbfaa.WithEpsilon(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Votes); got != 4 {
		t.Errorf("n inferred as %d, want 4", got)
	}
	_ = res
}

func TestWorstCaseFreezesAtBound(t *testing.T) {
	for _, model := range mbfaa.Models() {
		f := 2
		n := mbfaa.RequiredN(model, f) - 1 // exactly the bound
		adv, inputs, cured, err := mbfaa.WorstCase(model, n, f, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		res, err := mbfaa.Run(
			mbfaa.WithModel(model),
			mbfaa.WithSystem(n, f),
			mbfaa.WithInputs(inputs...),
			mbfaa.WithInitialCured(cured...),
			mbfaa.WithAdversary(adv),
			mbfaa.WithAlgorithm(mbfaa.FTA),
			mbfaa.WithEpsilon(1e-3),
			mbfaa.WithFixedRounds(100),
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			t.Errorf("%v: converged at the bound", model)
		}
	}
}

func TestCheckersOption(t *testing.T) {
	res, err := mbfaa.Run(
		mbfaa.WithModel(mbfaa.M1),
		mbfaa.WithSystem(9, 2),
		mbfaa.WithInputs(0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
		mbfaa.WithEpsilon(1e-3),
		mbfaa.WithCheckers(),
		mbfaa.WithAdversaryName("rotating"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check == nil {
		t.Fatal("checkers enabled but report nil")
	}
	if !res.Check.Ok() || !res.Check.Lemma5Holds() {
		t.Errorf("invariants failed: %+v", res.Check.Violations)
	}
}

func TestTraceOption(t *testing.T) {
	rec := mbfaa.NewTrace()
	_, err := mbfaa.Run(
		mbfaa.WithModel(mbfaa.M4),
		mbfaa.WithSystem(4, 1),
		mbfaa.WithInputs(1, 2, 3, 4),
		mbfaa.WithEpsilon(0.1),
		mbfaa.WithTrace(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("trace recorded nothing")
	}
	if !strings.Contains(rec.Render(), "round 0") {
		t.Error("trace render missing round 0")
	}
}

func TestLookupHelpers(t *testing.T) {
	if _, err := mbfaa.AlgorithmByName("fta"); err != nil {
		t.Error(err)
	}
	if _, err := mbfaa.AlgorithmByName("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := mbfaa.AdversaryByName("splitter"); err != nil {
		t.Error(err)
	}
	if _, err := mbfaa.AdversaryByName("bogus"); err == nil {
		t.Error("bogus adversary accepted")
	}
	if got := len(mbfaa.Models()); got != 4 {
		t.Errorf("Models() = %d entries", got)
	}
}

func TestCheckSystem(t *testing.T) {
	if err := mbfaa.CheckSystem(mbfaa.M1, 9, 2); err != nil {
		t.Errorf("9 > 8 rejected: %v", err)
	}
	err := mbfaa.CheckSystem(mbfaa.M1, 8, 2)
	if err == nil {
		t.Fatal("8 = 4·2 accepted")
	}
	if !strings.Contains(err.Error(), "9") {
		t.Errorf("error should name the required n: %v", err)
	}
	if mbfaa.MaxFaulty(mbfaa.M2, 11) != 2 {
		t.Error("MaxFaulty(M2, 11) != 2")
	}
	if mbfaa.RequiredN(mbfaa.M3, 2) != 13 {
		t.Error("RequiredN(M3, 2) != 13")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := mbfaa.Run(); err == nil {
		t.Error("empty run accepted")
	}
	if _, err := mbfaa.Run(
		mbfaa.WithSystem(5, 1),
		mbfaa.WithInputs(1, 2), // wrong count
		mbfaa.WithEpsilon(0.1),
	); err == nil {
		t.Error("mismatched inputs accepted")
	}
	if _, err := mbfaa.Run(
		mbfaa.WithSystem(5, 1),
		mbfaa.WithInputs(1, 2, 3, 4, 5),
		mbfaa.WithEpsilon(-1),
	); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := mbfaa.Run(
		mbfaa.WithAdversaryName("bogus"),
		mbfaa.WithSystem(5, 1),
		mbfaa.WithInputs(1, 2, 3, 4, 5),
		mbfaa.WithEpsilon(0.1),
	); err == nil {
		t.Error("bogus adversary name accepted")
	}
}

func TestRunWithAdversaryFactory(t *testing.T) {
	factory, err := mbfaa.AdversaryFactoryByName("splitter")
	if err != nil {
		t.Fatal(err)
	}
	adv, inputs, cured, err := mbfaa.WorstCase(mbfaa.M1, 8, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = adv // the factory replaces the shared instance
	mk := func() (*mbfaa.Result, error) {
		return mbfaa.Run(
			mbfaa.WithModel(mbfaa.M1),
			mbfaa.WithSystem(8, 2),
			mbfaa.WithInputs(inputs...),
			mbfaa.WithInitialCured(cured...),
			mbfaa.WithAdversaryFactory(factory),
			mbfaa.WithAlgorithm(mbfaa.FTA),
			mbfaa.WithEpsilon(1e-3),
			mbfaa.WithFixedRounds(50),
		)
	}
	// Two consecutive runs of the same spec must agree: the factory hands
	// each a fresh splitter, so no state leaks between them.
	first, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	second, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if first.Converged || second.Converged {
		t.Error("splitter at the bound should freeze the diameter")
	}
	if first.FinalDiameter() != second.FinalDiameter() {
		t.Errorf("factory runs disagree: %v vs %v — stale adversary state leaked",
			first.FinalDiameter(), second.FinalDiameter())
	}
}

func TestCheckSystemTypedError(t *testing.T) {
	err := mbfaa.CheckSystem(mbfaa.M1, 8, 2)
	if !errors.Is(err, mbfaa.ErrBelowBound) {
		t.Fatalf("err = %v, want ErrBelowBound", err)
	}
	var be *mbfaa.BoundError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not *BoundError", err)
	}
	if be.N != 8 || be.F != 2 || be.Model != mbfaa.M1 {
		t.Errorf("BoundError = %+v, want n=8 f=2 M1", be)
	}
}
