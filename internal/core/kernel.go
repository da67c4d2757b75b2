package core

import (
	"fmt"
	"math"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
)

// This file is the engine half of the base+patch round kernel (see
// internal/msr/kernel.go for the vote half). A full-mesh send phase has
// shared structure the n×n observation matrix obscures: symmetric senders —
// correct processes and M2-cured rebroadcasters — send one value to
// everybody, so two receivers' multisets differ only in the entries of the
// asymmetric senders (faulty processes and M3-cured poisoned queues), at
// most 2f of them. The kernel plan stores exactly that factored form: one
// base, NaN-checked and sorted once per round (sealBase), plus the
// adversary's Directives script, one row per receiver. A vote attaches a
// row to the sealed base and applies the algorithm to the resulting
// two-run multiset, which selects the surviving ranks by co-rank search
// instead of merging n values. The camp-steering adversaries script
// broadcast rows (one value from every asymmetric sender); such a row is
// attached as a constant run in O(1), reading its value in place. An
// omitted row leaves the bare base. Since equal rows give equal multisets,
// voteRange votes once per distinct broadcast or omitted row and reuses
// the vote for every receiver of that row (vote.go): under those
// adversaries a round is O(n) scans — sender classification, script fill,
// the vote loop's row reads — plus the O(n log n) base sort and at most
// three votes, O(log n) each with FTM or Median and O(n) with FTA.
// Explicit per-sender rows are voted per receiver: copied out and attached
// as a patch, NaN-checked and sorted there, O(f log f + log n) each with
// FTM or Median; Dolev adds a lookup per selected rank and FTA a walk over
// the receiver's survivors. planSendPhase emits this form for every round
// and voteRange is the one vote loop over it; the n×n matrix exists only
// as a view materialized from the plan for OnRound consumers
// (snapshotPlan).

// kernelPlan is one round's send phase in base+patch form. Its buffers live
// in the Runner's scratch and grow monotonically; a plan is valid until the
// next round is planned.
type kernelPlan struct {
	// base accumulates the symmetric senders' values; sealBase validates
	// and sorts it in place into baseSet, the round's shared base. Every
	// receiver's multiset contains all of it.
	base    []float64
	baseSet multiset.Multiset
	// dirs is the round's adversarial send script, which the round's
	// consultation filled. Its sender list is exactly the plan's
	// asymmetric senders, ascending.
	dirs *mobile.Directives
}

// reset prepares the plan for a new round, recycling the base buffer.
func (kp *kernelPlan) reset() {
	kp.base = kp.base[:0]
	kp.dirs = nil
}

// addSymmetric registers a sender as broadcasting v to every receiver.
func (kp *kernelPlan) addSymmetric(v float64) {
	kp.base = append(kp.base, v)
}

// sealBase validates the base once for every receiver — the NaN check and
// the sort — after which the plan is ready for voting.
func (kp *kernelPlan) sealBase() error {
	b, err := multiset.FromOwned(kp.base)
	if err != nil {
		return fmt.Errorf("core: building the round base: %w", err)
	}
	kp.baseSet = b
	return nil
}

// received returns receiver's multiset: the sealed base plus its row of
// the directives script. A broadcast row becomes a constant run over the
// script's own row slot and an omitted row leaves the base bare; only an
// explicit row is copied into dst (capacity ≥ the sender count, so the
// copy never allocates) and attached as a patch.
func (kp *kernelPlan) received(dst []float64, receiver int) (multiset.Multiset, error) {
	v, count, kind := kp.dirs.Row(receiver)
	switch kind {
	case mobile.RowBroadcast:
		return kp.baseSet.WithRepeated(v, count)
	case mobile.RowExplicit:
		return kp.baseSet.WithPatch(kp.dirs.AppendRow(dst, receiver))
	}
	return kp.baseSet, nil
}

// consultRound performs the round's single adversary consultation: it seals
// the directives script (every row omitted) and hands the RoundView to the
// run's adversary to fill it. The view is the zero-copy send-phase
// snapshot, and the fault lists and the plan's sealed base live in scratch
// like everything else the adversary sees — the no-retention contract
// covers them.
func (st *runState) consultRound(round int, faulty, cured []int, kp *kernelPlan, d *mobile.Directives) {
	d.Seal()
	st.sc.rview = mobile.RoundView{
		View:   st.borrowView(round, phaseSend),
		Faulty: faulty,
		Cured:  cured,
		Base:   &kp.baseSet,
	}
	st.cfg.Adversary.RoundDirectives(&st.sc.rview, d)
}

// computeVoteKernel applies the voting function over the receiver's two-run
// multiset (kernelPlan.received), which reads its elements in the order and
// with the left-to-right summation a per-receiver sort of the full row
// produces, so the result is bit-identical to msr.ApplyCapped over that
// row. Trimming degrades gracefully when omissions leave fewer than 2τ+1
// values (τ_eff = min(τ, (m−1)/2)); only deliberately sub-bound runs reach
// that. On total silence the receiver retains its previous value (a real
// protocol has nothing better); a NaN previous value means it had no usable
// state, which cannot happen for a non-faulty process with n > 1.
func computeVoteKernel(algo msr.Algorithm, tau int, received multiset.Multiset, previous float64) (float64, error) {
	if received.IsEmpty() {
		if math.IsNaN(previous) {
			return 0, fmt.Errorf("core: no values received and no previous state")
		}
		return previous, nil
	}
	return msr.ApplyReceived(algo, received, tau)
}
