package mbfaa_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mbfaa"
	"mbfaa/internal/mobile"
)

// cancellingAdversary wraps an inner adversary and cancels a context the
// Nth time the engine asks for a placement — a deterministic mid-run
// cancellation point. It counts every placement call so tests can assert
// the engine stopped within one round of the cancellation.
type cancellingAdversary struct {
	inner    mbfaa.Adversary
	cancelAt int64
	cancel   context.CancelFunc
	places   atomic.Int64
}

func (a *cancellingAdversary) Name() string { return "cancelling-" + a.inner.Name() }

func (a *cancellingAdversary) Place(v *mobile.View) []int {
	if a.places.Add(1) == a.cancelAt {
		a.cancel()
	}
	return a.inner.Place(v)
}

func (a *cancellingAdversary) LeaveBehind(v *mobile.View, p int) float64 {
	return a.inner.LeaveBehind(v, p)
}

func (a *cancellingAdversary) RoundDirectives(rv *mobile.RoundView, d *mobile.Directives) {
	a.inner.RoundDirectives(rv, d)
}

// longRunSpec is a run that would execute far longer than any cancellation
// test should take: 10 000 fixed rounds.
func longRunSpec(adv mbfaa.Adversary) mbfaa.Spec {
	inputs := make([]float64, 9)
	for i := range inputs {
		inputs[i] = float64(i) / 9
	}
	return mbfaa.NewSpec(
		mbfaa.WithModel(mbfaa.M1),
		mbfaa.WithSystem(9, 2),
		mbfaa.WithInputs(inputs...),
		mbfaa.WithEpsilon(1e-12),
		mbfaa.WithAdversary(adv),
		mbfaa.WithFixedRounds(10000),
	)
}

func TestEngineRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := mbfaa.NewEngine()
	_, err := eng.Run(ctx, longRunSpec(mobile.NewRotating()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestEngineRunCancelWithinOneRound cancels during round 60's placement
// and asserts the deterministic engine aborts before consulting the
// adversary again — i.e. within one round.
func TestEngineRunCancelWithinOneRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adv := &cancellingAdversary{inner: mobile.NewRotating(), cancelAt: 60, cancel: cancel}
	eng := mbfaa.NewEngine()
	_, err := eng.Run(ctx, longRunSpec(adv))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := adv.places.Load(); got != 60 {
		t.Errorf("adversary consulted %d times after cancelling at call 60; engine ran past the next round boundary", got)
	}
}

func TestStreamMatchesRun(t *testing.T) {
	mk := func() mbfaa.Spec {
		return mbfaa.NewSpec(
			mbfaa.WithModel(mbfaa.M2),
			mbfaa.WithSystem(11, 2),
			mbfaa.WithInputs(20.1, 20.4, 19.9, 20.0, 20.2, 20.3, 19.8, 20.1, 20.0, 20.2, 19.9),
			mbfaa.WithEpsilon(0.05),
			mbfaa.WithAdversaryName("random"),
			mbfaa.WithSeed(7),
		)
	}
	eng := mbfaa.NewEngine()
	direct, err := eng.Run(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}

	s := eng.Stream(context.Background(), mk())
	var rounds int
	for ri, ok := s.Next(); ok; ri, ok = s.Next() {
		if ri.Round != rounds {
			t.Fatalf("round %d streamed out of order (want %d)", ri.Round, rounds)
		}
		if len(ri.Votes) != 11 || ri.Matrix == nil {
			t.Fatalf("round %d snapshot incomplete: %+v", ri.Round, ri)
		}
		rounds++
	}
	streamed, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rounds != direct.Rounds || streamed.Rounds != direct.Rounds {
		t.Fatalf("rounds: streamed %d iterations / result %d, direct %d", rounds, streamed.Rounds, direct.Rounds)
	}
	for i := range direct.Votes {
		d, g := direct.Votes[i], streamed.Votes[i]
		if math.IsNaN(d) != math.IsNaN(g) || (!math.IsNaN(d) && d != g) {
			t.Errorf("vote %d: stream %v, direct %v", i, g, d)
		}
	}
}

// TestStreamCloseAbandonsRun closes the stream after two rounds; the
// producer must unblock, stop within one round, and report the
// cancellation through Result.
func TestStreamCloseAbandonsRun(t *testing.T) {
	eng := mbfaa.NewEngine()
	s := eng.Stream(context.Background(), longRunSpec(mobile.NewRotating()))
	for i := 0; i < 2; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended before two rounds")
		}
	}
	s.Close()
	res, err := s.Result()
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("after Close: res=%v err=%v, want nil result and context.Canceled", res, err)
	}
}

func TestStreamInvalidSpec(t *testing.T) {
	eng := mbfaa.NewEngine()
	s := eng.Stream(context.Background(), mbfaa.Spec{})
	if _, ok := s.Next(); ok {
		t.Fatal("invalid spec produced a round")
	}
	if _, err := s.Result(); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("err = %v, want ErrSpec", err)
	}
}

func TestSpecValidateInputsMismatch(t *testing.T) {
	spec := mbfaa.NewSpec(
		mbfaa.WithSystem(5, 1),
		mbfaa.WithInputs(1, 2, 3), // 3 inputs for n=5
		mbfaa.WithEpsilon(0.1),
	)
	err := spec.Validate()
	if !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("err = %v, want ErrSpec", err)
	}
	var ce *mbfaa.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *ConfigError", err)
	}
	if ce.Field != "Inputs" {
		t.Errorf("Field = %q, want Inputs", ce.Field)
	}
	if !strings.Contains(ce.Reason, "3") || !strings.Contains(ce.Reason, "5") {
		t.Errorf("reason should name both counts: %q", ce.Reason)
	}
}

func TestSpecValidateTypedErrors(t *testing.T) {
	check := func(field string, opts ...mbfaa.Option) {
		t.Helper()
		err := mbfaa.NewSpec(opts...).Validate()
		var ce *mbfaa.ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err %v is not *ConfigError", field, err)
		}
		if ce.Field != field {
			t.Errorf("Field = %q, want %q (err: %v)", ce.Field, field, err)
		}
	}
	base := []mbfaa.Option{mbfaa.WithSystem(5, 1), mbfaa.WithInputs(1, 2, 3, 4, 5)}
	check("N")
	check("Epsilon", append(base, mbfaa.WithEpsilon(-1))...)
	check("F", mbfaa.WithSystem(5, 5), mbfaa.WithInputs(1, 2, 3, 4, 5))
	check("AlgorithmName", append(base, func(s *mbfaa.Spec) { s.AlgorithmName = "bogus" })...)
	check("AdversaryName", append(base, mbfaa.WithAdversaryName("bogus"))...)
	check("MaxRounds", append(base, mbfaa.WithMaxRounds(-1))...)
}

// TestEngineRunPooledAllocs pins the pooled Engine's steady-state
// allocation rate to the core Runner's budget: pooling the runner must not
// reintroduce per-round allocations.
func TestEngineRunPooledAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped under -short")
	}
	const rounds = 100
	spec, err := mbfaa.WorstCaseSpec(mbfaa.M2, 10, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Algorithm = mbfaa.FTA
	spec.Epsilon = 1e-3
	spec.FixedRounds = rounds
	eng := mbfaa.NewEngine()
	ctx := context.Background()
	if _, err := eng.Run(ctx, spec); err != nil { // warm the pooled runner
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := eng.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	perRound := perRun / rounds
	const ceiling = 1.0 // same budget the core splitter guard pins
	if perRound > ceiling {
		t.Errorf("pooled Engine.Run allocates %.2f/round (%.0f/run), ceiling %v — pooling regressed the hot path",
			perRound, perRun, ceiling)
	}
}
