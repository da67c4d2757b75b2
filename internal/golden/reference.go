package golden

import (
	"fmt"
	"math"

	"mbfaa/internal/core"
	"mbfaa/internal/msr"
)

// CheckMatrixVotes is the naive reference for one round's computation
// phase, run from an OnRound callback. It recomputes every receiver's vote
// from the round's observation matrix the way the engine voted before its
// base+patch kernel: gather the row's non-omitted values, apply
// msr.ApplyCapped to them, and keep the previous value on an empty row. It
// compares the result with info.Votes bit for bit; receivers faulty during
// computation must carry NaN.
//
// A receiver's previous value is known here only when it was correct
// during the send phase (info.Expected), so an empty row at any other
// receiver is reported as an error. No row is empty while some process is
// correct during the send phase, because a correct sender reaches every
// receiver.
func CheckMatrixVotes(info core.RoundInfo, algo msr.Algorithm, tau int) error {
	n := info.Matrix.N()
	faulty := make([]bool, n)
	for _, p := range info.ComputeFaulty {
		faulty[p] = true
	}
	values := make([]float64, 0, n)
	for r := 0; r < n; r++ {
		got := info.Votes[r]
		if faulty[r] {
			if !math.IsNaN(got) {
				return fmt.Errorf("golden: round %d receiver %d: faulty during computation but voted %v", info.Round, r, got)
			}
			continue
		}
		row, err := info.Matrix.Row(r)
		if err != nil {
			return err
		}
		values = values[:0]
		for _, o := range row {
			if !o.Omitted {
				values = append(values, o.Value)
			}
		}
		want := info.Expected[r]
		if len(values) > 0 {
			if want, err = msr.ApplyCapped(algo, values, tau); err != nil {
				return fmt.Errorf("golden: round %d receiver %d: %w", info.Round, r, err)
			}
		} else if math.IsNaN(want) {
			return fmt.Errorf("golden: round %d receiver %d: empty row and no known previous value", info.Round, r)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("golden: round %d receiver %d: vote %v (bits %#016x), matrix reference %v (bits %#016x)",
				info.Round, r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return nil
}

// ReferenceHook returns an OnRound callback that holds every round of a run
// of cfg to CheckMatrixVotes, and a report of how many rounds it checked
// and the first mismatch. A caller compares the round count with the
// Result's, so a run whose callback never fired cannot pass vacuously.
func ReferenceHook(cfg core.Config) (hook func(core.RoundInfo), report func() (rounds int, err error)) {
	var rounds int
	var first error
	hook = func(info core.RoundInfo) {
		rounds++
		if first == nil {
			first = CheckMatrixVotes(info, cfg.Algorithm, cfg.Tau())
		}
	}
	return hook, func() (int, error) { return rounds, first }
}
