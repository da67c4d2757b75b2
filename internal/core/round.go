package core

import (
	"fmt"
	"math"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/multiset"
)

// Labels for deriving per-phase adversary random streams.
const (
	phasePlace uint64 = iota + 1
	phaseSend
	phaseLeave
)

// RoundInfo is the post-round snapshot passed to Config.OnRound. All of its
// fields are owned by the callback and remain valid after the run — the
// engine allocates them fresh whenever OnRound is set (experiments such as
// Table 1 retain the matrix and classify it after the sweep completes).
// Matrix and Expected are materialized from the round's kernel plan (its
// states, votes and directives script); the votes themselves come from the
// kernel, never from the matrix.
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

// plannedRound is one round's fully determined send phase. kern is the
// base+patch kernel plan the votes are computed from; it lives in the
// engine's scratch and is only valid until the next round is planned. With
// an OnRound callback the plan also carries the observation matrix and the
// expected values materialized from kern, freshly allocated because the
// callback may retain them; u is set whenever the checkers or the callback
// read it.
type plannedRound struct {
	kern     *kernelPlan
	matrix   *mixedmode.Matrix
	expected []float64
	u        multiset.Multiset
}

// fillView populates the scratch view in place. Clearing it first also
// zeroes the view's internal range cache, so a recycled view never leaks a
// cached CorrectRange across decision points; clearing and then setting
// the fields costs about half of assigning a composite literal, which is
// built in a temporary and copied over. The Rng is derived into a scratch
// Source — the identical stream Derive would return, without the
// allocation.
func (st *runState) fillView(round int, phase uint64, votes []float64, states []mobile.State) *mobile.View {
	st.master.DeriveInto(&st.sc.rng, uint64(round), phase)
	v := &st.sc.view
	*v = mobile.View{}
	v.Round, v.Model, v.N, v.F, v.Tau = round, st.cfg.Model, st.cfg.N, st.cfg.F, st.tau
	v.Algo, v.Votes, v.States, v.Rng = st.cfg.Algorithm, votes, states, &st.sc.rng
	return v
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
		Tau:    st.tau,
		Algo:   st.cfg.Algorithm,
		Votes:  append([]float64(nil), st.votes...),
		States: append([]mobile.State(nil), st.states...),
		Rng:    st.master.Derive(uint64(round), phase),
	}
}

// planSendPhase computes one round's send phase in base+patch kernel form
// (kernel.go). Every sender is classified in one ascending pass and the
// base is sealed; then the adversary is consulted exactly once, through
// Adversary.RoundDirectives, over a directives script whose senders are
// registered ascending, with the sealed base in its RoundView.
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
// U is built only when the checkers or an OnRound callback will read it:
// over scratch for the checkers, freshly allocated for the callback, which
// may retain it. With OnRound set the plan also carries the observation
// matrix and expected values (snapshotPlan).
func (st *runState) planSendPhase(round int) (plannedRound, error) {
	cfg := &st.cfg
	votes, states := st.votes, st.states
	kp := &st.sc.kern
	kp.reset()
	d := &st.sc.dirs
	d.Reset(cfg.N)
	faulty := st.sc.fList[:0]
	cured := st.sc.cList[:0]
	needU := st.report != nil || st.snapshot
	var uValues []float64 // fresh for a callback, which may retain U
	if !st.snapshot {
		uValues = st.sc.uValues[:0]
	}

	for sender := 0; sender < cfg.N; sender++ {
		switch states[sender] {
		case mobile.StateCorrect:
			if needU {
				uValues = append(uValues, votes[sender])
			}
			kp.addSymmetric(votes[sender])
		case mobile.StateFaulty:
			faulty = append(faulty, sender)
			d.AddSender(sender, false)
		case mobile.StateCured:
			cured = append(cured, sender)
			switch cfg.Model {
			case mobile.M1Garay:
				// Aware and silent: no receiver observes anything.
			case mobile.M2Bonnet:
				kp.addSymmetric(votes[sender])
			case mobile.M3Sasaki:
				d.AddSender(sender, true)
			case mobile.M4Buhrman:
				return plannedRound{}, fmt.Errorf("core: cured process %d during an M4 send phase", sender)
			}
		default:
			return plannedRound{}, fmt.Errorf("core: process %d in invalid state %v", sender, states[sender])
		}
	}
	if err := kp.sealBase(); err != nil {
		return plannedRound{}, err
	}
	st.consultRound(round, faulty, cured, kp, d)
	kp.dirs = d
	plan := plannedRound{kern: kp}
	if needU {
		u, err := multiset.FromOwned(uValues)
		if err != nil {
			return plannedRound{}, fmt.Errorf("core: building U: %w", err)
		}
		plan.u = u
	}
	if st.snapshot {
		if err := st.snapshotPlan(&plan); err != nil {
			return plannedRound{}, err
		}
	}
	return plan, nil
}

// snapshotPlan materializes the planned round for an OnRound callback: the
// n×n observation matrix and the expected values, read off the same states,
// votes and directives script the kernel votes on. It must run before
// moveM4 mutates states and votes. Both are freshly allocated, because the
// callback may retain them (the Table 1 classifier does).
func (st *runState) snapshotPlan(plan *plannedRound) error {
	n := st.cfg.N
	matrix, err := mixedmode.NewMatrix(n)
	if err != nil {
		return err
	}
	expected := make([]float64, n)
	for sender, state := range st.states {
		expected[sender] = math.NaN()
		if state == mobile.StateCorrect {
			expected[sender] = st.votes[sender]
		} else if state != mobile.StateCured || st.cfg.Model != mobile.M2Bonnet {
			continue // asymmetric senders are scripted below; M1-cured ones are silent
		}
		for receiver := 0; receiver < n; receiver++ {
			if err := matrix.Record(receiver, sender, mixedmode.Observation{Value: st.votes[sender]}); err != nil {
				return err
			}
		}
	}
	// Directives.Set and SetRow already sanitised NaN into omissions, so
	// non-omitted entries transfer to the matrix unconditionally.
	d := plan.kern.dirs
	for k, m := 0, d.Len(); k < m; k++ {
		sender := d.Sender(k)
		for receiver := 0; receiver < n; receiver++ {
			if val, omit := d.At(k, receiver); !omit {
				if err := matrix.Record(receiver, sender, mixedmode.Observation{Value: val}); err != nil {
					return err
				}
			}
		}
	}
	plan.matrix, plan.expected = matrix, expected
	return nil
}
