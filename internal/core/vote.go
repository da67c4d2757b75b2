package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelVoteMinN is the auto-mode crossover: below this system size the
// per-round goroutine fan-out and join cost more than the vote work they
// would split — O(n log n) per round with broadcast rows, O(n·(f log f +
// log n)) with explicit ones, plus FTA's and Dolev's walks — so
// Config.VoteWorkers == 0 stays sequential. An explicit VoteWorkers > 1
// bypasses the crossover (the equivalence tests force small parallel runs
// through it).
const parallelVoteMinN = 128

// voteWorkers resolves Config.VoteWorkers for this run (see its doc).
func (st *runState) voteWorkers() int {
	w := st.cfg.VoteWorkers
	if w == 0 {
		if st.cfg.N < parallelVoteMinN {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > st.cfg.N {
		w = st.cfg.N
	}
	if w < 1 {
		w = 1
	}
	return w
}

// computeVotesKernel runs the kernel path's per-receiver vote loop,
// sequentially or across voteWorkers() goroutines. The loop is
// embarrassingly parallel over an immutable round plan: every worker reads
// the shared sorted base, the directives script and the previous votes, and
// writes only its own contiguous slice of newVotes with its own patch
// buffer — no shared mutable state, so the partition cannot change any
// result bit. Receivers are split into contiguous chunks (receiver i
// always computes the same vote regardless of which worker runs it), and
// errors surface as the lowest failing receiver's, exactly as the
// sequential loop reports them.
func (st *runState) computeVotesKernel(round, tau int, kp *kernelPlan) error {
	workers := st.voteWorkers()
	if workers <= 1 {
		return st.voteRange(round, tau, kp, 0, st.cfg.N, st.sc.pvals)
	}

	n := st.cfg.N
	st.sc.ensureVoteBufs(workers, n)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		buf := &st.sc.voteBufs[w]
		buf.err = nil
		wg.Add(1)
		go func(lo, hi int, buf *voteBuf) {
			defer wg.Done()
			buf.err = st.voteRange(round, tau, kp, lo, hi, buf.pvals)
		}(lo, hi, buf)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if w*chunk >= n {
			break
		}
		if err := st.sc.voteBufs[w].err; err != nil {
			return err
		}
	}
	return nil
}

// voteRange computes the votes of receivers [lo, hi) over the round plan,
// using the provided patch buffer for explicit rows (length ignored,
// capacity ≥ n; resliced to empty per receiver). It is the one body both
// the sequential and the parallel loops execute.
func (st *runState) voteRange(round, tau int, kp *kernelPlan, lo, hi int, pvals []float64) error {
	cfg := st.cfg
	for i := lo; i < hi; i++ {
		if st.faulty.has(i) {
			st.newVotes[i] = math.NaN()
			continue
		}
		received, err := kp.received(pvals[:0], i)
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
