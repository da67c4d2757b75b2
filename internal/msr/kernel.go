package msr

import "mbfaa/internal/multiset"

// This file implements the single-receiver side of the shared-base round
// kernel. A full-mesh send phase has shared structure a per-receiver sort
// ignores: every symmetric sender (a correct process, or an M2-cured
// rebroadcaster) contributes the same value to every receiver, so two
// receivers' multisets differ only in the entries of the asymmetric
// senders — at most 2f of them, the very fact the FTA/FTM contraction
// proofs rest on. A received multiset is therefore the symmetric base,
// sorted and NaN-checked once, plus the receiver's patch: an O(f) slice,
// sorted and NaN-checked when it is attached (multiset.Multiset.WithPatch),
// or, when every asymmetric sender delivers the same value, a constant run
// attached in O(1) (multiset.Multiset.WithRepeated). The algorithm's
// unchanged Apply reads that two-run form by co-rank search: FTM and
// Median cost O(log n) per vote once the patch is attached — O(f log f)
// to sort a slice patch (one O(f) scan when it arrives sorted), O(1) for a
// constant run — Dolev looks up only the
// ranks it selects, and FTA walks only the survivors. The engine seals one
// base per round and attaches each receiver's row to it. Receivers with
// equal rows receive equal multisets, and for this package's algorithms
// (Pure) it votes once per distinct broadcast or omitted row: at most three
// votes per round under the camp-steering adversaries, instead of one per
// receiver. Explicit rows cost a vote each, O(f log f + log n) with FTM or
// Median.
//
// Bit-exactness contract: the two-run form reads the elements in exactly
// the order multiset.MergeSortedInto(base, patch) produces (ties
// base-first; a constant run reads as its copies), which is the ascending
// sequence sort.Float64s yields for the combined multiset, and Apply sums
// them left to right — so kernel votes are bit-identical to ApplyCapped
// over the concatenated values.

// KernelVote computes the MSR vote over the union of base (the symmetric
// contributions) and patch (this receiver's asymmetric values), capping τ
// as ApplyCapped does. Both slices are validated and sorted in place — the
// caller rebuilds them each round — and nothing is copied or merged. The
// result is bit-identical to ApplyCapped(algo, base∪patch, tau).
func KernelVote(algo Algorithm, tau int, base, patch []float64) (float64, error) {
	b, err := multiset.FromOwned(base)
	if err != nil {
		return 0, err
	}
	received, err := b.WithPatch(patch)
	if err != nil {
		return 0, err
	}
	return ApplyReceived(algo, received, tau)
}
