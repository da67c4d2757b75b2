package core

import (
	"context"
	"errors"
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// cancelCfg is a long fixed-horizon run whose OnRound callback cancels the
// context after the given round — a deterministic mid-run cancellation.
func cancelCfg(ctx context.Context, cancel context.CancelFunc, cancelAfter int, observed *int) Config {
	const n, f = 9, 2
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i) / n
	}
	return Config{
		Model:       mobile.M1Garay,
		N:           n,
		F:           f,
		Algorithm:   msr.FTM{},
		Adversary:   mobile.NewRotating(),
		Inputs:      inputs,
		Epsilon:     1e-12,
		FixedRounds: 100000,
		Ctx:         ctx,
		OnRound: func(ri RoundInfo) {
			*observed = ri.Round
			if ri.Round == cancelAfter {
				cancel()
			}
		},
	}
}

// TestRunCancelWithinOneRound asserts the deterministic engine honours a
// mid-run cancellation at the next round boundary: cancelling during round
// k's callback means no round after k executes.
func TestRunCancelWithinOneRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	observed := -1
	res, err := Run(cancelCfg(ctx, cancel, 5, &observed))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want nil result and context.Canceled", res, err)
	}
	if observed != 5 {
		t.Errorf("last executed round %d, want 5 (cancel must land at the next boundary)", observed)
	}
}

// TestRunPreCancelled asserts a cancelled context aborts before round 0.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	observed := -1
	_, err := Run(cancelCfg(ctx, cancel, 10, &observed))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if observed != -1 {
		t.Errorf("round %d executed under a pre-cancelled context", observed)
	}
}

// TestRunNilCtxUnaffected pins the default: a nil Ctx runs to completion.
func TestRunNilCtxUnaffected(t *testing.T) {
	observed := -1
	cfg := cancelCfg(nil, func() {}, -1, &observed)
	cfg.Ctx = nil
	cfg.FixedRounds = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 10 || observed != 9 {
		t.Errorf("rounds=%d observed=%d, want 10/9", res.Rounds, observed)
	}
}

// TestRunnerReusableAfterCancel asserts a cancelled run leaves the
// Runner's scratch in a sane state: the next run on the same Runner is
// bit-identical to a fresh engine.
func TestRunnerReusableAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner()
	observed := -1
	if _, err := r.Run(cancelCfg(ctx, cancel, 3, &observed)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}

	mk := func() Config {
		c := cancelCfg(context.Background(), func() {}, -1, &observed)
		c.Ctx = nil
		c.OnRound = nil
		c.FixedRounds = 12
		return c
	}
	reused, err := r.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(reused.Votes) != len(fresh.Votes) {
		t.Fatal("vote lengths differ")
	}
	for i := range fresh.Votes {
		a, b := reused.Votes[i], fresh.Votes[i]
		if (a != b) && !(a != a && b != b) { // NaN-tolerant
			t.Errorf("vote %d differs after cancelled-run reuse: %v vs %v", i, a, b)
		}
	}
}
