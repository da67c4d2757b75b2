// Package golden is the shared golden-determinism fixture: a pinned matrix
// of {model} × {algorithm} × {adversary} × {seed} configurations together
// with the recorded digest of every observable Result field. The digests
// were recorded from the pre-refactor (PR 1) reference engine and must
// never change: the core engine tests assert them for Run and reused
// Runners, and the public facade asserts them for Engine.Run,
// Engine.Stream, Engine.RunBatch and the legacy Run — so no optimization or
// API layer can silently change protocol semantics.
//
// The package lives outside the test binaries on purpose: internal/core and
// the root mbfaa package both import it, which keeps one case matrix and
// one digest table shared between every equivalence suite. For the same
// reason it holds the per-round vote reference (CheckMatrixVotes), which
// the core and proptest suites hold the engine's kernel to.
package golden

import (
	"fmt"
	"math"

	"mbfaa/internal/core"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// Digest folds every observable field of a Result into one FNV-1a hash.
// Float64s are folded by bit pattern, so even a one-ulp drift or a NaN
// payload change flips the digest.
func Digest(res *core.Result) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mixBool := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(2)
		}
	}
	mix(uint64(res.Rounds))
	mixBool(res.Converged)
	mix(math.Float64bits(res.InitialCorrectRange.Lo))
	mix(math.Float64bits(res.InitialCorrectRange.Hi))
	for _, v := range res.Votes {
		mix(math.Float64bits(v))
	}
	for _, d := range res.Decided {
		mixBool(d)
	}
	for _, d := range res.DiameterSeries {
		mix(math.Float64bits(d))
	}
	return h
}

// Case is one pinned configuration. Cfg.Adversary is freshly constructed on
// every Cases call (stateful adversaries must be fresh per run), so run a
// new case matrix per engine pass rather than replaying one.
type Case struct {
	Key string
	Cfg core.Config
}

// Cases builds the full pinned matrix: every model × every algorithm ×
// three seeds × four adversaries (the deterministic splitter, the
// Rng-driven random adversary, the stateful greedy lookahead, and a
// dynamic-halting rotating run), at n = RequiredN(f)+1 with f = 2.
func Cases() ([]Case, error) {
	const f = 2
	var cases []Case
	for _, model := range mobile.AllModels() {
		n := model.RequiredN(f) + 1
		layout, err := mobile.SplitterLayout(model, n, f, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("golden: %v splitter layout: %w", model, err)
		}
		spread := make([]float64, n)
		for i := range spread {
			spread[i] = float64(i) / float64(n)
		}
		for _, algo := range msr.All() {
			for seed := uint64(1); seed <= 3; seed++ {
				base := core.Config{
					Model:     model,
					N:         n,
					F:         f,
					Algorithm: algo,
					Epsilon:   1e-3,
					Seed:      seed,
				}
				mk := func(adv string) core.Config {
					c := base
					switch adv {
					case "splitter":
						c.Adversary = mobile.NewSplitter()
						c.Inputs = layout.Inputs(n)
						c.InitialCured = layout.InitialCured(model, f)
						c.FixedRounds = 12
					case "random":
						c.Adversary = mobile.NewRandom()
						c.Inputs = spread
						c.FixedRounds = 12
					case "greedy":
						c.Adversary = mobile.NewGreedy()
						c.Inputs = spread
						c.FixedRounds = 8
					case "rotating-dyn":
						c.Adversary = mobile.NewRotating()
						c.Inputs = spread
						c.MaxRounds = 80
					}
					return c
				}
				for _, adv := range []string{"splitter", "random", "greedy", "rotating-dyn"} {
					cases = append(cases, Case{
						Key: fmt.Sprintf("%s/%s/%s/seed=%d", model.Short(), algo.Name(), adv, seed),
						Cfg: mk(adv),
					})
				}
			}
		}
	}
	return cases, nil
}
