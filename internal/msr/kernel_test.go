package msr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mbfaa/internal/multiset"
)

// TestApplyReceivedMatchesApplyCapped asserts a vote over the two-run
// received multiset is bit-identical to ApplyCapped for every algorithm,
// across random base/patch splits and trim parameters (including the
// sub-bound τ cap).
func TestApplyReceivedMatchesApplyCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		values := randValues(rng, 1+rng.Intn(15))
		cut := rng.Intn(len(values) + 1)
		tau := rng.Intn(9) // often above (len-1)/2, exercising the cap
		for _, algo := range All() {
			naive, naiveErr := ApplyCapped(algo, append([]float64(nil), values...), tau)
			base := multiset.MustFromValues(values[:cut]...)
			received, err := base.WithPatch(append([]float64(nil), values[cut:]...))
			if err != nil {
				t.Fatal(err)
			}
			kern, kernErr := ApplyReceived(algo, received, tau)
			if (naiveErr == nil) != (kernErr == nil) {
				t.Fatalf("trial %d %s: error mismatch: naive=%v kernel=%v", trial, algo.Name(), naiveErr, kernErr)
			}
			if naiveErr == nil && math.Float64bits(naive) != math.Float64bits(kern) {
				t.Fatalf("trial %d %s τ=%d: kernel %v != naive %v on %v", trial, algo.Name(), tau, kern, naive, values)
			}
		}
	}
}

// TestKernelVoteRejectsNaN pins where values are validated: a NaN in the
// base or in the patch, or an empty round, must not reach the reduction.
func TestKernelVoteRejectsNaN(t *testing.T) {
	if _, err := KernelVote(FTA{}, 0, []float64{1, math.NaN()}, []float64{3}); !errors.Is(err, multiset.ErrNaN) {
		t.Fatalf("NaN base: err = %v, want ErrNaN", err)
	}
	if _, err := KernelVote(FTA{}, 0, []float64{1, 2}, []float64{math.NaN()}); !errors.Is(err, multiset.ErrNaN) {
		t.Fatalf("NaN patch: err = %v, want ErrNaN", err)
	}
	if _, err := KernelVote(FTA{}, 0, nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestKernelVoteMatchesApplyCapped asserts the full base+patch pipeline —
// sort base, sort patch, capped apply over the two runs — is bit-identical
// to the naive path on the concatenated values.
func TestKernelVoteMatchesApplyCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		base := randValues(rng, rng.Intn(12))
		patch := randValues(rng, rng.Intn(6))
		tau := rng.Intn(5)
		all := append(append([]float64(nil), base...), patch...)
		for _, algo := range All() {
			naive, naiveErr := ApplyCapped(algo, append([]float64(nil), all...), tau)
			kern, kernErr := KernelVote(algo, tau, append([]float64(nil), base...), append([]float64(nil), patch...))
			if (naiveErr == nil) != (kernErr == nil) {
				t.Fatalf("trial %d %s: error mismatch: naive=%v kernel=%v", trial, algo.Name(), naiveErr, kernErr)
			}
			if naiveErr == nil && math.Float64bits(naive) != math.Float64bits(kern) {
				t.Fatalf("trial %d %s τ=%d: kernel %v != naive %v (base=%v patch=%v)",
					trial, algo.Name(), tau, kern, naive, base, patch)
			}
		}
	}
}

// randValues draws values with deliberate duplicates (quantized to halves)
// and occasional extremes, the shapes Byzantine rounds produce.
func randValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = math.Inf(1)
		case 1:
			out[i] = math.Inf(-1)
		default:
			out[i] = math.Round(rng.Float64()*20) / 2
		}
	}
	return out
}
