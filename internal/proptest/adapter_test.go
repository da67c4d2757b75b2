package proptest

import (
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
	"mbfaa/internal/mobile"
)

// pairRandom is the random adversary's rule written one (sender, receiver)
// pair at a time, as the golden digests' reference engine consulted it:
// each entry is omitted with probability 0.1, and otherwise uniform in the
// correct range widened by half its diameter on each side, or in [-1, 1)
// with no correct process. Live agents and M3 queues follow the same rule.
type pairRandom struct{}

func (pairRandom) Name() string { return "pair-random" }

func (pairRandom) Place(v *mobile.View) []int {
	if v.F == 0 || v.N == 0 {
		return nil
	}
	perm := v.Rng.Perm(v.N)
	out := make([]int, 0, v.F)
	for i := 0; i < v.F && i < len(perm); i++ {
		out = append(out, perm[i])
	}
	return out
}

func (pairRandom) LeaveBehind(v *mobile.View, p int) float64 {
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return v.Rng.Range(-1, 1)
	}
	pad := (hi - lo) / 2
	return v.Rng.Range(lo-pad, hi+pad)
}

func (pairRandom) FaultyValue(v *mobile.View, faulty, receiver int) (float64, bool) {
	if v.Rng.Bool(0.1) {
		return 0, true
	}
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return v.Rng.Range(-1, 1), false
	}
	pad := (hi - lo) / 2
	return v.Rng.Range(lo-pad, hi+pad), false
}

func (r pairRandom) QueueValue(v *mobile.View, cured, receiver int) (float64, bool) {
	return r.FaultyValue(v, cured, receiver)
}

// TestGoldenDigestsAdapter runs every random-adversary case of the golden
// matrix with pairRandom lifted through mobile.Adapt: the pinned digests,
// recorded from the per-pair reference engine, must reproduce bit for bit,
// so the Adapter's consultation order and Rng stream are those of the
// engine the digests came from.
func TestGoldenDigestsAdapter(t *testing.T) {
	cases, err := golden.Cases()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	checked := 0
	for _, gc := range cases {
		if gc.Cfg.Adversary.Name() != "random" {
			continue
		}
		cfg := gc.Cfg
		cfg.Adversary = mobile.Adapt(pairRandom{})
		res, err := runner.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.Key, err)
		}
		if d := golden.Digest(res); d != golden.Digests[gc.Key] {
			t.Errorf("%s: adapter digest %#016x, pinned %#016x", gc.Key, d, golden.Digests[gc.Key])
		}
		checked++
	}
	if checked != 48 {
		t.Errorf("checked %d random-adversary golden cases, want 48", checked)
	}
}

// TestAdapterMatchesNative runs every trial twice, once with the native
// random adversary and once with pairRandom through mobile.Adapt, and
// requires identical digests: across every model, algorithm, system size,
// input layout and seed buildTrials enumerates, the Adapter replays the
// per-pair rule exactly as the native script draws it.
func TestAdapterMatchesNative(t *testing.T) {
	runner := core.NewRunner()
	for _, tr := range buildTrials(t) {
		nativeCfg := tr.cfg
		nativeCfg.Adversary = mobile.NewRandom()
		nativeRes, err := runner.Run(nativeCfg)
		if err != nil {
			t.Fatalf("%s: native run: %v", tr.key, err)
		}
		adaptedCfg := tr.cfg
		adaptedCfg.Adversary = mobile.Adapt(pairRandom{})
		adaptedRes, err := runner.Run(adaptedCfg)
		if err != nil {
			t.Fatalf("%s: adapter run: %v", tr.key, err)
		}
		if nd, ad := golden.Digest(nativeRes), golden.Digest(adaptedRes); nd != ad {
			t.Errorf("%s: native random digest %x != adapted pairRandom %x\nnative votes:  %v\nadapter votes: %v",
				tr.key, nd, ad, nativeRes.Votes, adaptedRes.Votes)
		}
	}
}
