package core

import (
	"testing"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// Allocation-regression guards: the round loop's scratch reuse is a core
// performance property (ISSUE 2) and these tests pin it. A steady-state
// round on a recycled Runner performs O(1) allocations — at most the
// adversary's own placement slice, and nothing else (the placement check
// writes into scratch) — independent of n. The splitter and the static
// census adversary return placements they keep, so their runs allocate
// only per run: ≈0.15 and ≈0.08 allocs/round over 100 rounds. The
// ceilings below are several times that, and one reintroduced per-round
// allocation — a map, a matrix, a vote copy — trips them, while a few
// more per-run allocations from a new Go version do not.
//
// They are skipped under -short: testing.AllocsPerRun disables parallelism
// and runs the body repeatedly, which is not worth the time in quick
// iteration loops.

// allocsPerRound measures the steady-state allocation rate of cfg, which
// must be a FixedRounds config, on a pre-warmed reused Runner.
func allocsPerRound(t *testing.T, r *Runner, cfg Config, newAdversary func() mobile.Adversary) float64 {
	t.Helper()
	cfg.Adversary = newAdversary()
	if _, err := r.Run(cfg); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(10, func() {
		c := cfg
		c.Adversary = newAdversary() // stateful adversaries must be fresh
		if _, err := r.Run(c); err != nil {
			t.Fatal(err)
		}
	})
	return perRun / float64(cfg.FixedRounds)
}

func TestSteadyStateAllocBudgetSplitter(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guards skipped under -short")
	}
	const n, f, rounds = 10, 2, 100
	layout, err := mobile.SplitterLayout(mobile.M2Bonnet, n, f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:        mobile.M2Bonnet,
		N:            n,
		F:            f,
		Algorithm:    msr.FTA{},
		Inputs:       layout.Inputs(n),
		InitialCured: layout.InitialCured(mobile.M2Bonnet, f),
		Epsilon:      1e-3,
		FixedRounds:  rounds,
	}
	got := allocsPerRound(t, NewRunner(), cfg, func() mobile.Adversary { return mobile.NewSplitter() })
	const ceiling = 1.0
	if got > ceiling {
		t.Errorf("splitter steady state allocates %.2f/round, ceiling %v — scratch reuse regressed", got, ceiling)
	}
}

func TestSteadyStateAllocBudgetStaticCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guards skipped under -short")
	}
	census := mixedmode.Counts{Asymmetric: 1, Symmetric: 1, Benign: 1}
	n := census.Threshold() // boundary size: frozen, runs all FixedRounds
	inputs, err := mobile.MixedModeLayout(census, n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:        mobile.M4Buhrman,
		N:            n,
		F:            census.Total(),
		Algorithm:    msr.FTA{},
		Inputs:       inputs,
		TrimOverride: census.Asymmetric + census.Symmetric,
		Epsilon:      1e-3,
		FixedRounds:  100,
	}
	got := allocsPerRound(t, NewRunner(), cfg, func() mobile.Adversary { return mobile.NewMixedMode(census) })
	const ceiling = 1.0
	if got > ceiling {
		t.Errorf("static census steady state allocates %.2f/round, ceiling %v — scratch reuse regressed", got, ceiling)
	}
}

// TestRunnerScalesAllocFree asserts the per-round allocation rate does not
// grow with n for any voting function, under both directive row forms: the former engine allocated Θ(n²)
// per round (matrix, rows, vote copies), and a vote that builds an O(n)
// selection per receiver (DolevSelect once did) is Θ(n) per round — both
// trip this immediately.
func TestRunnerScalesAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guards skipped under -short")
	}
	rate := func(algo msr.Algorithm, adv func() mobile.Adversary, n int) float64 {
		f := mobile.M1Garay.MaxFaulty(n)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		cfg := Config{
			Model:       mobile.M1Garay,
			N:           n,
			F:           f,
			Algorithm:   algo,
			Inputs:      inputs,
			Epsilon:     1e-9,
			FixedRounds: 20,
		}
		return allocsPerRound(t, NewRunner(), cfg, adv)
	}
	// Rotating fills broadcast directive rows, Random explicit per-sender
	// entries: both script forms must stay size-independent.
	advs := []func() mobile.Adversary{
		func() mobile.Adversary { return mobile.NewRotating() },
		func() mobile.Adversary { return mobile.NewRandom() },
	}
	for _, adv := range advs {
		for _, algo := range msr.All() {
			small, large := rate(algo, adv, 16), rate(algo, adv, 256)
			t.Logf("%s/%s: %.2f allocs/round (n=16), %.2f (n=256)", adv().Name(), algo.Name(), small, large)
			// The rate is O(1); allow generous slack before declaring Θ(n) growth.
			if large > 4*small+8 {
				t.Errorf("%s/%s: allocs/round grew from %.2f (n=16) to %.2f (n=256); round loop no longer size-independent",
					adv().Name(), algo.Name(), small, large)
			}
		}
	}
}
