package proptest

import (
	"testing"

	"mbfaa/internal/core"
	"mbfaa/internal/golden"
)

// trialsDigest pins the whole randomized space at once: an FNV-1a fold of
// every trial's key and the golden digest of its run with a fresh built-in
// adversary. It was recorded while every built-in's native RoundDirectives
// still ran digest-identical to its per-pair methods replayed through the
// Adapter on every trial, so it pins the per-pair rules the built-ins were
// defined by.
const trialsDigest = 0x911dac713b31ae21

// TestGoldenTrialDigests runs every trial with its built-in adversary and
// checks the fold of the digests against the pin.
func TestGoldenTrialDigests(t *testing.T) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	runner := core.NewRunner()
	trials := buildTrials(t)
	for _, tr := range trials {
		cfg := tr.cfg
		cfg.Adversary = tr.fresh()
		res, err := runner.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tr.key, err)
		}
		for _, c := range tr.key {
			mix(uint64(c))
		}
		mix(golden.Digest(res))
	}
	if h != trialsDigest {
		t.Errorf("digest of %d trials = %#016x, pinned %#016x", len(trials), h, uint64(trialsDigest))
	}
}
