package core

import (
	"fmt"
	"testing"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// BenchmarkKernelRound measures the steady-state round loop on a reused
// Runner, without and with an OnRound callback (a no-op). Both arms vote
// through the kernel; the gap between them is the cost of materializing
// each round's n×n observation matrix, expected values and U for the
// callback. At n=1024 only the kernel arm runs: the snapshot arm's matrix
// is 16 MB per round there.
func BenchmarkKernelRound(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		f := mobile.M2Bonnet.MaxFaulty(n)
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64(i) / float64(n)
		}
		cfg := Config{
			Model:       mobile.M2Bonnet,
			N:           n,
			F:           f,
			Algorithm:   msr.FTA{},
			Adversary:   mobile.NewRotating(),
			Inputs:      inputs,
			Epsilon:     1e-9,
			FixedRounds: 10,
		}
		for _, arm := range []struct {
			name string
			cfg  Config
		}{
			{"kernel", cfg},
			{"snapshot", func() Config {
				c := cfg
				c.OnRound = func(RoundInfo) {}
				return c
			}()},
		} {
			if n > 256 && arm.cfg.OnRound != nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				r := NewRunner()
				if _, err := r.Run(arm.cfg); err != nil { // warm scratch
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(arm.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
