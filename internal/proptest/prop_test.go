// Package proptest cross-checks the base+patch round kernel against the
// naive per-receiver-sort reference over a randomized configuration space.
//
// The reference is golden.CheckMatrixVotes, run from an OnRound callback:
// every round, the engine materializes the n×n observation matrix from its
// kernel plan, and the reference gathers and sorts each non-faulty
// receiver's full row and votes on it with msr.ApplyCapped — exactly the
// pre-kernel computation — and requires the kernel's vote bit for bit. A
// plain run of the same Config (no callback, no matrix) must also give the
// same golden digest (every float folded by bit pattern), across models,
// algorithms, adversaries (splitter, greedy, random, crash, mixed-mode),
// seeds, omission-heavy rounds (crash omits everything; random omits 10%)
// and sub-bound systems (n ≤ bound — the regime ClusterSpec.AllowSubBound
// opts into; the core engine accepts it directly).
package proptest

import (
	"fmt"
	"math/rand"
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// trial is one pinned configuration plus the constructor for its (possibly
// stateful) adversary: every engine pass needs a fresh instance.
type trial struct {
	key   string
	fresh func() mobile.Adversary
	cfg   core.Config // Adversary left nil; filled per pass
}

// buildTrials enumerates the cross-check space: for every model and
// algorithm, each adversary kind at an above-bound and (where the layout
// permits) a sub-bound system size, with per-trial randomized inputs drawn
// from a fixed-seed PRNG so failures replay exactly.
func buildTrials(t *testing.T) []trial {
	t.Helper()
	rng := rand.New(rand.NewSource(1789))
	var trials []trial
	for _, model := range mobile.AllModels() {
		for _, algo := range msr.All() {
			for _, f := range []int{1, 2} {
				for _, sub := range []bool{false, true} {
					n := model.RequiredN(f) + 1 + rng.Intn(3)
					if sub {
						n = model.Bound(f) // at the bound: solvability fails, semantics must not
					}
					seed := uint64(1 + rng.Intn(1000))
					spread := make([]float64, n)
					for i := range spread {
						spread[i] = float64(rng.Intn(2*n)) / float64(n)
					}
					base := core.Config{
						Model: model, N: n, F: f, Algorithm: algo,
						Epsilon: 1e-3, Seed: seed, FixedRounds: 7,
					}
					add := func(kind string, fresh func() mobile.Adversary, cfg core.Config) {
						trials = append(trials, trial{
							key:   fmt.Sprintf("%s/%s/%s/f=%d/n=%d/seed=%d", model.Short(), algo.Name(), kind, f, n, seed),
							fresh: fresh,
							cfg:   cfg,
						})
					}

					layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
					if err != nil {
						t.Fatalf("%v n=%d f=%d: %v", model, n, f, err)
					}
					splitCfg := base
					splitCfg.Inputs = layout.Inputs(n)
					splitCfg.InitialCured = layout.InitialCured(model, f)
					add("splitter", func() mobile.Adversary { return mobile.NewSplitter() }, splitCfg)

					spreadCfg := base
					spreadCfg.Inputs = spread
					add("random", func() mobile.Adversary { return mobile.NewRandom() }, spreadCfg)
					add("crash", func() mobile.Adversary { return mobile.NewCrash() }, spreadCfg)

					// The greedy lookahead simulates the algorithm per
					// candidate rule; keep it to the small grid.
					if f == 1 && !sub {
						greedyCfg := spreadCfg
						greedyCfg.FixedRounds = 5
						add("greedy", func() mobile.Adversary { return mobile.NewGreedy() }, greedyCfg)
					}

					// Dynamic halting exercises the diameter series end.
					dynCfg := spreadCfg
					dynCfg.FixedRounds = 0
					dynCfg.MaxRounds = 40
					add("rotating-dyn", func() mobile.Adversary { return mobile.NewRotating() }, dynCfg)
				}
			}
		}
	}

	// The static mixed-mode adversary drives the M4 substrate with an
	// explicit (a, s, b) census and a TrimOverride — the configuration
	// family of the T0/F4 experiments.
	for _, census := range []mixedmode.Counts{
		{Asymmetric: 1, Symmetric: 1, Benign: 1},
		{Asymmetric: 2, Benign: 1},
	} {
		for _, extra := range []int{0, 1} { // 0 = at the bound (sub-bound regime)
			n := census.Threshold() + extra
			inputs, err := mobile.MixedModeLayout(census, n, 0, 1)
			if err != nil {
				t.Fatalf("census %v n=%d: %v", census, n, err)
			}
			census := census
			trials = append(trials, trial{
				key:   fmt.Sprintf("M4/fta/mixedmode/%v/n=%d", census, n),
				fresh: func() mobile.Adversary { return mobile.NewMixedMode(census) },
				cfg: core.Config{
					Model: mobile.M4Buhrman, N: n, F: census.Total(), Algorithm: msr.FTA{},
					Inputs: inputs, TrimOverride: census.Asymmetric + census.Symmetric,
					Epsilon: 1e-3, FixedRounds: 7, Seed: 3,
				},
			})
		}
	}
	return trials
}

// TestKernelMatchesNaiveReference is the randomized bit-exactness
// cross-check: every round's kernel votes equal the matrix reference's, and
// a run without OnRound is digest-identical to one with it, for every
// trial.
func TestKernelMatchesNaiveReference(t *testing.T) {
	runner := core.NewRunner()
	for _, tr := range buildTrials(t) {
		kernelCfg := tr.cfg
		kernelCfg.Adversary = tr.fresh()
		kernelRes, err := runner.Run(kernelCfg)
		if err != nil {
			t.Fatalf("%s: kernel run: %v", tr.key, err)
		}

		naiveRes := runReference(t, runner, tr.key, tr.cfg, tr.fresh())
		if kd, nd := golden.Digest(kernelRes), golden.Digest(naiveRes); kd != nd {
			t.Errorf("%s: kernel digest %x != naive reference %x\nkernel votes: %v\nnaive votes:  %v",
				tr.key, kd, nd, kernelRes.Votes, naiveRes.Votes)
		}
	}
}

// runReference runs cfg with adv and an OnRound callback that holds every
// round's votes to the matrix reference, failing the test on the first
// mismatch or if any round went unchecked.
func runReference(t *testing.T, runner *core.Runner, key string, cfg core.Config, adv mobile.Adversary) *core.Result {
	t.Helper()
	cfg.Adversary = adv
	var report func() (int, error)
	cfg.OnRound, report = golden.ReferenceHook(cfg)
	res, err := runner.Run(cfg)
	if err != nil {
		t.Fatalf("%s: naive run: %v", key, err)
	}
	if rounds, err := report(); err != nil || rounds != res.Rounds {
		t.Fatalf("%s: %d of %d rounds checked against the matrix reference: %v", key, rounds, res.Rounds, err)
	}
	return res
}

// TestKernelMatchesNaiveWithCheckers repeats a slice of the space with the
// invariant checkers enabled: the checkers read U, which a run without
// OnRound builds over scratch and a run with it allocates fresh, so the
// verdicts — violation lists and Theorem 1 certificates — must agree, and
// every round must still match the matrix reference.
func TestKernelMatchesNaiveWithCheckers(t *testing.T) {
	runner := core.NewRunner()
	for _, tr := range buildTrials(t) {
		if tr.cfg.FixedRounds != 7 { // keep the checker pass to the core grid
			continue
		}
		kernelCfg := tr.cfg
		kernelCfg.Adversary = tr.fresh()
		kernelCfg.EnableCheckers = true
		kernelRes, err := runner.Run(kernelCfg)
		if err != nil {
			t.Fatalf("%s: kernel run: %v", tr.key, err)
		}
		naiveRes := runReference(t, runner, tr.key, kernelCfg, tr.fresh())
		if kd, nd := golden.Digest(kernelRes), golden.Digest(naiveRes); kd != nd {
			t.Errorf("%s: checker-enabled kernel digest %x != naive %x", tr.key, kd, nd)
			continue
		}
		kc, nc := kernelRes.Check, naiveRes.Check
		if kc == nil || nc == nil {
			t.Fatalf("%s: missing check report (kernel=%v naive=%v)", tr.key, kc != nil, nc != nil)
		}
		if kc.Ok() != nc.Ok() || len(kc.Violations) != len(nc.Violations) || len(kc.Certificates) != len(nc.Certificates) {
			t.Errorf("%s: check reports diverge: kernel ok=%v v=%d c=%d, naive ok=%v v=%d c=%d",
				tr.key, kc.Ok(), len(kc.Violations), len(kc.Certificates), nc.Ok(), len(nc.Violations), len(nc.Certificates))
			continue
		}
		for i := range kc.Violations {
			if kc.Violations[i] != nc.Violations[i] {
				t.Errorf("%s: violation %d differs: kernel %+v, naive %+v", tr.key, i, kc.Violations[i], nc.Violations[i])
			}
		}
		for i := range kc.Certificates {
			if kc.Certificates[i] != nc.Certificates[i] {
				t.Errorf("%s: certificate %d differs: kernel %+v, naive %+v", tr.key, i, kc.Certificates[i], nc.Certificates[i])
			}
		}
	}
}
