package core

import (
	"fmt"
	"math"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
)

// voteRange is the round's one vote loop: it computes every receiver's vote
// over the round plan into newVotes (NaN for the receivers faulty during
// computation), reusing the scratch patch buffer for explicit rows.
//
// A vote depends only on the receiver's multiset (and, over an empty one,
// on its previous value), and the multiset only on the receiver's row of
// the script. So when the algorithm's Apply is pure (msr.Pure), receivers
// whose rows are equal share one vote through the round's voteMemo: the
// camp-steering adversaries script at most two broadcast values per round,
// plus omitted rows, so a round costs at most three votes instead of one
// per receiver. Any other algorithm is applied once per receiver.
func (st *runState) voteRange(round, tau int, kp *kernelPlan) error {
	cfg := &st.cfg
	memo := voteMemo{off: !msr.Pure(cfg.Algorithm), bareEmpty: kp.baseSet.IsEmpty()}
	for i := 0; i < cfg.N; i++ {
		if st.faulty.has(i) {
			st.newVotes[i] = math.NaN()
			continue
		}
		slot := memo.find(kp.dirs.Row(i))
		if slot != nil && slot.full {
			st.newVotes[i] = slot.vote
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
		if slot != nil {
			slot.vote, slot.full = v, true
		}
	}
	return nil
}

// voteMemo holds one round's votes by received multiset: one slot for the
// omitted row (the bare base) and two for broadcast rows, each keyed on the
// row's value bits and count — bits, not ==, because +0 and −0 compare
// equal yet a vote over one may differ in sign from a vote over the other.
// The broadcast slots are claimed by the first two distinct keys of the
// round and never replaced, so no order of rows can make them thrash; a
// third distinct broadcast row (no built-in adversary scripts one) is voted
// per receiver. Explicit rows are never memoized, and neither is an
// omitted row over an empty base, whose vote falls back to each receiver's
// own previous value. A voteMemo lives on voteRange's stack, fresh every
// round.
type voteMemo struct {
	off       bool // the algorithm is not pure: vote every receiver
	bareEmpty bool // the base is empty: omitted rows receive nothing
	omitted   memoSlot
	broadcast [2]memoSlot
}

// memoSlot is one memoized vote and the key of the row it was voted on.
type memoSlot struct {
	bits  uint64 // a broadcast row's value, as math.Float64bits
	count int    // a broadcast row's sender count
	vote  float64
	full  bool // vote is set
}

// find returns the slot for a row as Directives.Row reports it: the slot
// already holding the vote on the row's multiset (full), a free slot newly
// keyed for it (not full; the caller stores the vote it computes), or nil
// when the row is voted on its own.
func (m *voteMemo) find(v *float64, count int, kind mobile.RowKind) *memoSlot {
	if m.off {
		return nil
	}
	switch kind {
	case mobile.RowOmitted:
		if m.bareEmpty {
			return nil
		}
		return &m.omitted
	case mobile.RowBroadcast:
		bits := math.Float64bits(*v)
		for k := range m.broadcast {
			s := &m.broadcast[k]
			if !s.full {
				s.bits, s.count = bits, count
				return s
			}
			if s.bits == bits && s.count == count {
				return s
			}
		}
	}
	return nil
}
