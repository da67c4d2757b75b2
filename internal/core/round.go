package core

import (
	"fmt"
	"math"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
)

// Labels for deriving per-phase adversary random streams. Both plan
// representations derive the same streams, which keeps randomized
// adversaries identical whether or not OnRound is set.
const (
	phasePlace uint64 = iota + 1
	phaseSend
	phaseLeave
)

// RoundInfo is the post-round snapshot passed to Config.OnRound. All of its
// fields are owned by the callback and remain valid after the run — the
// engine allocates them fresh whenever OnRound is set (experiments such as
// Table 1 retain the matrix and classify it after the sweep completes).
type RoundInfo struct {
	// Round is the round index, starting at 0.
	Round int
	// SendStates are the failure states in force during the send phase.
	SendStates []mobile.State
	// Matrix is the full observation matrix of the round's send phase:
	// Matrix[receiver][sender].
	Matrix *mixedmode.Matrix
	// Expected[s] is the value sender s would have broadcast had it been
	// correct (NaN for processes that were faulty or cured, whose correct
	// value is unknowable).
	Expected []float64
	// Votes are the stored values after the computation phase (NaN for
	// processes faulty during computation).
	Votes []float64
	// ComputeFaulty are the processes faulty during the computation phase
	// (same as send-phase faulty for M1–M3; the post-move hosts for M4).
	ComputeFaulty []int
	// U is the multiset of values broadcast by send-phase-correct
	// processes — the paper's U, the baseline of P1 and P2.
	U multiset.Multiset
}

// plannedRound holds the fully determined send phase of one round, in one
// of two representations. On the hot path (no OnRound callback) kern holds
// the base+patch kernel form and no matrix exists; when OnRound is set the
// observation matrix and expected values are materialized instead, because
// the callback may legitimately retain them. Kernel plans live in the
// engine's scratch and are only valid until the next round is planned;
// snapshot plans are freshly allocated.
type plannedRound struct {
	kern     *kernelPlan
	matrix   *mixedmode.Matrix
	expected []float64
	u        multiset.Multiset
}

// fillView populates the scratch view in place. Assigning a fresh composite
// literal also zeroes the view's internal range cache, so a recycled view
// never leaks a cached CorrectRange across decision points. The Rng is
// derived into a scratch Source — the identical stream Derive would
// return, without the allocation.
func (st *runState) fillView(round int, phase uint64, votes []float64, states []mobile.State) *mobile.View {
	st.master.DeriveInto(&st.sc.rng, uint64(round), phase)
	st.sc.view = mobile.View{
		Round:  round,
		Model:  st.cfg.Model,
		N:      st.cfg.N,
		F:      st.cfg.F,
		Tau:    st.cfg.Tau(),
		Algo:   st.cfg.Algorithm,
		Votes:  votes,
		States: states,
		Rng:    &st.sc.rng,
	}
	return &st.sc.view
}

// borrowView builds the adversary's omniscient snapshot directly over the
// engine's live vote/state buffers — zero copies. It is only used at
// decision points where the engine does not mutate state until the
// adversary call returns (placement, the send phase). Adversaries must not
// mutate the view's slices (the Adversary contract) nor retain them across
// calls; an adversary that does retain views declares it via
// mobile.ViewRetainer and gets the defensive copies back.
func (st *runState) borrowView(round int, phase uint64) *mobile.View {
	if st.copyViews {
		return st.freshView(round, phase)
	}
	return st.fillView(round, phase, st.votes, st.states)
}

// snapshotView builds the adversary view over a copy of the current votes
// and states held in reusable scratch buffers — an O(n) copy but no
// allocation. It is used when the engine mutates state while the view is
// still being consulted (the movement phase interleaves LeaveBehind calls
// with vote writes, and every consultation must see the pre-move state).
func (st *runState) snapshotView(round int, phase uint64) *mobile.View {
	if st.copyViews {
		return st.freshView(round, phase)
	}
	votes := st.sc.viewVotes[:st.cfg.N]
	states := st.sc.viewStates[:st.cfg.N]
	copy(votes, st.votes)
	copy(states, st.states)
	return st.fillView(round, phase, votes, states)
}

// freshView is the pre-scratch behaviour: a newly allocated view over newly
// allocated copies, safe to retain indefinitely.
func (st *runState) freshView(round int, phase uint64) *mobile.View {
	return &mobile.View{
		Round:  round,
		Model:  st.cfg.Model,
		N:      st.cfg.N,
		F:      st.cfg.F,
		Tau:    st.cfg.Tau(),
		Algo:   st.cfg.Algorithm,
		Votes:  append([]float64(nil), st.votes...),
		States: append([]mobile.State(nil), st.states...),
		Rng:    st.master.Derive(uint64(round), phase),
	}
}

// planSendPhase computes one round's send phase. The adversary is consulted
// exactly once, through Adversary.RoundDirectives, over a directives script
// whose senders are registered ascending, so a randomized adversary draws
// identically on both plan representations.
//
// Send semantics per state (paper §3 and Lemmas 1–4):
//
//	correct      broadcast stored vote to everyone (including itself)
//	faulty       per-receiver adversary-chosen value or omission
//	cured, M1    silent (aware of its state)
//	cured, M2    broadcast stored (corrupted) vote — symmetric
//	cured, M3    per-receiver values from the agent-prepared queue
//	cured, M4    cannot occur: agents move with messages, so no process
//	             is cured during a send phase
//
// On the hot path (no OnRound callback) the plan is emitted in base+patch
// kernel form and the n×n observation matrix is skipped entirely; U is
// built — over scratch — only when the checkers will read it. The matrix
// path below serves OnRound snapshots, whose consumers (the Table 1
// classifier) need the full matrix and the expected values and may retain
// them, so everything is freshly allocated.
func (st *runState) planSendPhase(round int) (plannedRound, error) {
	if !st.snapshot {
		return st.planKernelSendPhase(round)
	}
	cfg := st.cfg
	votes, states := st.votes, st.states

	matrix, err := mixedmode.NewMatrix(cfg.N)
	if err != nil {
		return plannedRound{}, err
	}
	expected := make([]float64, cfg.N)
	var uValues []float64

	d := &st.sc.dirs
	d.Reset(cfg.N)
	faulty := st.sc.fList[:0]
	cured := st.sc.cList[:0]
	for sender := 0; sender < cfg.N; sender++ {
		switch states[sender] {
		case mobile.StateCorrect:
			expected[sender] = votes[sender]
			uValues = append(uValues, votes[sender])
			for receiver := 0; receiver < cfg.N; receiver++ {
				if err := matrix.Record(receiver, sender, mixedmode.Observation{Value: votes[sender]}); err != nil {
					return plannedRound{}, err
				}
			}
		case mobile.StateFaulty:
			expected[sender] = math.NaN()
			faulty = append(faulty, sender)
			d.AddSender(sender, false)
		case mobile.StateCured:
			expected[sender] = math.NaN()
			cured = append(cured, sender)
			switch cfg.Model {
			case mobile.M1Garay:
				// Aware and silent: every entry stays Omitted.
			case mobile.M2Bonnet:
				for receiver := 0; receiver < cfg.N; receiver++ {
					if err := matrix.Record(receiver, sender, mixedmode.Observation{Value: votes[sender]}); err != nil {
						return plannedRound{}, err
					}
				}
			case mobile.M3Sasaki:
				d.AddSender(sender, true)
			case mobile.M4Buhrman:
				return plannedRound{}, fmt.Errorf("core: cured process %d during an M4 send phase", sender)
			}
		default:
			return plannedRound{}, fmt.Errorf("core: process %d in invalid state %v", sender, states[sender])
		}
	}

	// One consultation fills the adversarial entries; Directives.Set
	// and SetRow already sanitised NaN into omissions, so non-omitted
	// entries transfer to the matrix unconditionally.
	st.consultRound(round, faulty, cured, d)
	for k, m := 0, d.Len(); k < m; k++ {
		sender := d.Sender(k)
		for receiver := 0; receiver < cfg.N; receiver++ {
			val, omit := d.At(k, receiver)
			if omit {
				continue // entry remains Omitted
			}
			if err := matrix.Record(receiver, sender, mixedmode.Observation{Value: val}); err != nil {
				return plannedRound{}, err
			}
		}
	}

	plan := plannedRound{matrix: matrix, expected: expected}
	u, err := multiset.FromOwned(uValues)
	if err != nil {
		return plannedRound{}, fmt.Errorf("core: building U: %w", err)
	}
	plan.u = u
	return plan, nil
}

// computeVote applies the voting function to one receiver's observation
// row, accumulating the non-omitted values in the provided scratch buffer
// (passed with length 0; capacity must cover len(row), which the engine
// guarantees). Trimming degrades gracefully when omissions leave fewer than
// 2τ+1 values: the process trims as much as it can while keeping one
// survivor (τ_eff = min(τ, (m−1)/2)). Above the replica bound τ_eff always
// equals τ; the degradation only matters in deliberately sub-bound runs.
func computeVote(algo msr.Algorithm, tau int, row []mixedmode.Observation, previous float64, scratch []float64) (float64, error) {
	values := scratch
	for _, o := range row {
		if !o.Omitted {
			values = append(values, o.Value)
		}
	}
	if len(values) == 0 {
		// Total silence: retain the previous value (a real protocol has
		// nothing better); NaN previous means the process had no usable
		// state, which cannot happen for a non-faulty process with n > 1.
		if math.IsNaN(previous) {
			return 0, fmt.Errorf("core: no values received and no previous state")
		}
		return previous, nil
	}
	return msr.ApplyCapped(algo, values, tau)
}
