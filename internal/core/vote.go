package core

import (
	"fmt"
	"math"
)

// voteRange is the round's one vote loop: it computes every receiver's vote
// over the round plan into newVotes (NaN for the receivers faulty during
// computation), reusing the scratch patch buffer for explicit rows.
func (st *runState) voteRange(round, tau int, kp *kernelPlan) error {
	cfg := st.cfg
	for i := 0; i < cfg.N; i++ {
		if st.faulty.has(i) {
			st.newVotes[i] = math.NaN()
			continue
		}
		received, err := kp.received(st.sc.pvals[:0], i)
		var v float64
		if err == nil {
			v, err = computeVoteKernel(cfg.Algorithm, tau, received, st.votes[i])
		}
		if err != nil {
			return fmt.Errorf("core: round %d process %d: %w", round, i, err)
		}
		st.newVotes[i] = v
	}
	return nil
}
