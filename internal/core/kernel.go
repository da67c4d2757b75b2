package core

import (
	"fmt"
	"math"

	"mbfaa/internal/mixedmode"
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
// adversary's Directives script, one row per receiver. Each receiver's vote
// attaches its O(f) patch — the row — to the sealed base, NaN-checked and
// sorted there, and applies the algorithm to the resulting two-run
// multiset, which selects the surviving ranks by co-rank search instead of
// merging n values. The camp-steering adversaries script broadcast rows (one
// value from every asymmetric sender), so filling the script costs O(n) and
// each patch arrives sorted and is scanned once: a round costs
// O(n log n + n·(f + log n)) with FTM or Median. Explicit per-sender rows
// keep the O(f log f) patch sort. Dolev adds a lookup per selected rank and
// FTA a walk over each receiver's survivors. On the hot path (no OnRound
// snapshot) planSendPhase emits this form directly and the matrix is never
// materialized; the matrix and the per-sender expected values remain the
// snapshot representation for OnRound consumers.

// senderKind classifies one sender's send-phase behaviour in a kernel plan.
// The zero value is deliberately invalid: every sender must be classified
// by the planning loop, and the concurrent engine's plan verification
// treats an unclassified sender as a protocol error.
type senderKind uint8

const (
	// kindSymmetric senders delivered symVal to every receiver (correct
	// processes, M2-cured rebroadcasters). Their contributions form the base.
	kindSymmetric senderKind = iota + 1
	// kindSilent senders delivered nothing to anybody (M1-cured processes,
	// aware of their state). They contribute neither base nor patch.
	kindSilent
	// kindAsymmetric senders delivered per-receiver values or omissions
	// (faulty processes, M3-cured queues). Their observations live in the
	// directives script.
	kindAsymmetric
)

// kernelPlan is one round's send phase in base+patch form. Its slices live
// in the Runner's scratch and grow monotonically; a plan is valid until the
// next round is planned. The concurrent engine shares the plan read-only
// with its worker goroutines (the channel send/receive pairs order every
// write before every read), and the deterministic engine's parallel vote
// loop shares it read-only with its vote workers.
type kernelPlan struct {
	n int
	// base accumulates the symmetric senders' values; sealBase validates
	// and sorts it in place into baseSet, the round's shared base. Every
	// receiver's multiset contains all of it.
	base    []float64
	baseSet multiset.Multiset
	// kinds[s] classifies sender s; symVal[s] is the value a kindSymmetric
	// sender broadcast (a copy taken at planning time — votes move on under
	// M4's mid-round relocation, plans do not).
	kinds  []senderKind
	symVal []float64
	// dirs is the round's adversarial send script, which the batched
	// consultation filled. Its sender list is exactly the
	// plan's asymmetric senders, ascending.
	dirs *mobile.Directives
}

// reset prepares the plan for a round of n senders, recycling all buffers.
func (kp *kernelPlan) reset(n int) {
	kp.n = n
	if cap(kp.kinds) < n {
		kp.kinds = make([]senderKind, n)
		kp.symVal = make([]float64, n)
	}
	kp.kinds = kp.kinds[:n]
	kp.symVal = kp.symVal[:n]
	for i := range kp.kinds {
		kp.kinds[i] = 0
	}
	kp.base = kp.base[:0]
	kp.dirs = nil
}

// addSymmetric registers sender as broadcasting v to every receiver.
func (kp *kernelPlan) addSymmetric(sender int, v float64) {
	kp.kinds[sender] = kindSymmetric
	kp.symVal[sender] = v
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

// patchInto appends receiver's non-omitted patch values to dst: the
// receiver's row of the directives script.
func (kp *kernelPlan) patchInto(dst []float64, receiver int) []float64 {
	return kp.dirs.AppendRow(dst, receiver)
}

// scriptRow rebuilds asymmetric sender's outgoing messages for the
// concurrent engine's scripted send directive. The slice is handed to a
// worker goroutine that drains it at its own pace, so it is freshly
// allocated rather than scratch-backed.
func (kp *kernelPlan) scriptRow(sender, round int) ([]message, error) {
	k, ok := kp.dirs.Index(sender)
	if !ok {
		return nil, fmt.Errorf("core: sender %d not in the plan's asymmetric set", sender)
	}
	out := make([]message, kp.n)
	for j := 0; j < kp.n; j++ {
		v, omit := kp.dirs.At(k, j)
		out[j] = message{round: round, from: sender, value: v, omitted: omit}
	}
	return out, nil
}

// planKernelSendPhase is planSendPhase's hot-path twin: it classifies every
// sender in one ascending pass, then obtains the whole adversarial script
// in a single batched RoundDirectives consultation, and emits the
// base+patch form without ever touching an observation matrix. U is
// accumulated (over scratch) only when the checkers will read it.
func (st *runState) planKernelSendPhase(round int) (plannedRound, error) {
	cfg := st.cfg
	votes, states := st.votes, st.states
	kp := &st.sc.kern
	kp.reset(cfg.N)
	d := &st.sc.dirs
	d.Reset(cfg.N)
	faulty := st.sc.fList[:0]
	cured := st.sc.cList[:0]
	needU := st.report != nil
	var uValues []float64
	if needU {
		uValues = st.sc.uValues[:0]
	}

	for sender := 0; sender < cfg.N; sender++ {
		switch states[sender] {
		case mobile.StateCorrect:
			if needU {
				uValues = append(uValues, votes[sender])
			}
			kp.addSymmetric(sender, votes[sender])
		case mobile.StateFaulty:
			kp.kinds[sender] = kindAsymmetric
			faulty = append(faulty, sender)
			d.AddSender(sender, false)
		case mobile.StateCured:
			cured = append(cured, sender)
			switch cfg.Model {
			case mobile.M1Garay:
				// Aware and silent: no receiver observes anything.
				kp.kinds[sender] = kindSilent
			case mobile.M2Bonnet:
				kp.addSymmetric(sender, votes[sender])
			case mobile.M3Sasaki:
				kp.kinds[sender] = kindAsymmetric
				d.AddSender(sender, true)
			case mobile.M4Buhrman:
				return plannedRound{}, fmt.Errorf("core: cured process %d during an M4 send phase", sender)
			}
		default:
			return plannedRound{}, fmt.Errorf("core: process %d in invalid state %v", sender, states[sender])
		}
	}
	st.consultRound(round, faulty, cured, d)
	kp.dirs = d
	if err := kp.sealBase(); err != nil {
		return plannedRound{}, err
	}
	plan := plannedRound{kern: kp}
	if needU {
		u, err := multiset.FromOwned(uValues)
		if err != nil {
			return plannedRound{}, fmt.Errorf("core: building U: %w", err)
		}
		plan.u = u
	}
	return plan, nil
}

// consultRound performs the round's single adversary consultation: it seals
// the directives script (every row omitted) and hands the batched
// RoundView to the run's RoundAdversary to fill it. The view is the same
// zero-copy send-phase snapshot the per-pair path always consulted over,
// and the fault lists live in scratch like everything else the adversary
// sees — the no-retention contract covers them.
func (st *runState) consultRound(round int, faulty, cured []int, d *mobile.Directives) {
	d.Seal()
	st.sc.rview = mobile.RoundView{
		View:   st.borrowView(round, phaseSend),
		Faulty: faulty,
		Cured:  cured,
	}
	st.batch.RoundDirectives(&st.sc.rview, d)
}

// computeVoteKernel is computeVote over the base+patch form: attach the
// receiver's O(f) patch to the round's sealed base — the patch is
// NaN-checked and sorted in place, nothing is merged or copied — and apply
// the voting function over the two-run multiset, which reads its elements
// in the order and with the left-to-right summation the per-receiver sort
// produces, so the result is bit-identical. The total-silence fallback
// mirrors computeVote: retain the previous value.
func computeVoteKernel(algo msr.Algorithm, tau int, base multiset.Multiset, patch []float64, previous float64) (float64, error) {
	received, err := base.WithPatch(patch)
	if err != nil {
		return 0, err
	}
	if received.IsEmpty() {
		if math.IsNaN(previous) {
			return 0, fmt.Errorf("core: no values received and no previous state")
		}
		return previous, nil
	}
	return msr.ApplyReceived(algo, received, tau)
}

// kernelWorkerVote is the concurrent engine's verified kernel compute: the
// worker first checks every actually-received observation against the plan
// — symmetric senders must have delivered exactly their base value, silent
// senders nothing — then votes over the shared sorted base plus the patch
// it actually received from the asymmetric senders. The verification is the
// message-passing engine's plan-equivalence guarantee made explicit: a
// mismatch means the goroutines did not reproduce the planned send phase.
func kernelWorkerVote(algo msr.Algorithm, tau int, kp *kernelPlan, row []mixedmode.Observation, previous float64, patch []float64) (float64, error) {
	for s, o := range row {
		switch kp.kinds[s] {
		case kindSymmetric:
			if o.Omitted || o.Value != kp.symVal[s] {
				return 0, fmt.Errorf("core: plan verification: symmetric sender %d delivered (%v, omitted=%v), plan says %v",
					s, o.Value, o.Omitted, kp.symVal[s])
			}
		case kindSilent:
			if !o.Omitted {
				return 0, fmt.Errorf("core: plan verification: silent sender %d delivered %v", s, o.Value)
			}
		case kindAsymmetric:
			if !o.Omitted {
				patch = append(patch, o.Value)
			}
		default:
			return 0, fmt.Errorf("core: plan verification: sender %d unclassified", s)
		}
	}
	return computeVoteKernel(algo, tau, kp.baseSet, patch, previous)
}
