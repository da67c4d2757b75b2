package msr

import (
	"fmt"
	"testing"

	"mbfaa/internal/multiset"
	"mbfaa/internal/prng"
)

// benchMultiset builds an n-value multiset once.
func benchMultiset(b *testing.B, n int) multiset.Multiset {
	b.Helper()
	rng := prng.New(7)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Range(0, 1)
	}
	return multiset.MustFromValues(values...)
}

// BenchmarkKernelVote contrasts one receiver's vote over the two-run
// received multiset against the naive per-receiver sort (ApplyCapped), for
// every algorithm, at engine-realistic shapes. The n=64 and n=256 arms
// carry a 2f-value asymmetric patch; sim-n1024 is the M1 round of the
// sim-n1024 benchmark workload (n=1024, f=255: 514 symmetric senders, 255
// faulty ones, the 255 cured ones silent). The kernel arm seals the base
// once outside the loop, as the engines do once per round, and pays the
// per-receiver patch copy, sort and vote each iteration. At the sim-n1024
// shape the broadcast arm attaches the 255 faulty senders' common value as
// a constant run (multiset.WithRepeated), as the engine does for a
// broadcast row: O(log n) per vote against the kernel arm's O(f).
func BenchmarkKernelVote(b *testing.B) {
	shapes := []struct {
		name             string
		base, patch, tau int
	}{
		{"n=64", 40, 24, 24},
		{"n=256", 154, 102, 102},
		{"sim-n1024", 514, 255, 255},
	}
	for _, sh := range shapes {
		rng := prng.New(11)
		baseVals := make([]float64, sh.base)
		for i := range baseVals {
			baseVals[i] = rng.Range(0, 1)
		}
		patchVals := make([]float64, sh.patch)
		for i := range patchVals {
			patchVals[i] = rng.Range(0, 1)
		}
		all := append(append([]float64(nil), baseVals...), patchVals...)
		base := multiset.MustFromValues(baseVals...)
		row := patchVals[0]
		for _, algo := range All() {
			if sh.name == "sim-n1024" {
				b.Run(fmt.Sprintf("broadcast/%s/%s", sh.name, algo.Name()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						received, err := base.WithRepeated(&row, sh.patch)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := ApplyReceived(algo, received, sh.tau); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("kernel/%s/%s", sh.name, algo.Name()), func(b *testing.B) {
				patch := make([]float64, len(patchVals))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Re-disorder the patch so every iteration pays its sort.
					copy(patch, patchVals)
					received, err := base.WithPatch(patch)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ApplyReceived(algo, received, sh.tau); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("naive/%s/%s", sh.name, algo.Name()), func(b *testing.B) {
				values := append([]float64(nil), all...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(values, all)
					if _, err := ApplyCapped(algo, values, sh.tau); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkApply measures one voting-function evaluation — the per-process
// per-round cost of the protocol's computation phase.
func BenchmarkApply(b *testing.B) {
	const n = 128
	m := benchMultiset(b, n)
	tau := n / 5
	for _, algo := range All() {
		b.Run(algo.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := algo.Apply(m, tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
