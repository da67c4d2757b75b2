package mobile

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file is the batched half of the adversary interface. The per-pair
// Adversary methods pull one (sender, receiver) decision at a time — n
// interface calls per scripted sender per round, which BENCH_pr5 measured
// at ~63% of a kernel round at n=64. The adversary of the paper is
// omniscient per round, so consulting it once per round with the complete
// plan is semantically identical; RoundAdversary is that consultation
// surface. All built-in adversaries implement it natively; any third-party
// per-pair Adversary is lifted onto it by Adapt, bit-identically.

// Directives is one round's complete adversarial send script: for every
// scripted sender (faulty processes and, under M3, cured processes with a
// poisoned queue) and every receiver, either a value or an omission. The
// engine builds the sender list — in ascending process order — prepares
// the script with Seal, and hands it to RoundAdversary.RoundDirectives to
// fill; every entry starts as an omission, so an adversary only writes the
// pairs it wants delivered. Set and SetRow sanitise NaN into an omission
// exactly as the per-pair paths always have (NaN has no place in a
// multiset).
//
// The script is stored per receiver row, in one of three forms: omitted
// (every scripted sender sends nothing to the receiver), broadcast (every
// scripted sender delivers the same value, recorded once by SetRow) or
// explicit (one value-or-omission per sender, written by Set and Omit).
// Camp-steering adversaries fill broadcast rows, so their script costs
// O(n) rather than O(n·m); the receiver-by-sender block behind explicit
// rows is sized only once some row needs it.
type Directives struct {
	n       int       // receivers
	senders []int     // scripted senders, ascending
	queue   []bool    // queue[k]: senders[k] is an M3 poisoned queue, not a live agent
	kinds   []RowKind // kinds[r]: the form of receiver r's row
	row     []float64 // row[r]: the value of a broadcast row
	values  []float64 // values[r*len(senders)+k], read only for explicit rows
	omits   []bool    // omits[r*len(senders)+k], read only for explicit rows
}

// RowKind is the form of one receiver's row in a Directives script.
type RowKind uint8

const (
	RowOmitted   RowKind = iota // no scripted sender delivers anything
	RowBroadcast                // every scripted sender delivers one value
	RowExplicit                 // one value or omission per scripted sender
)

// Reset prepares the script for a round of n receivers with no senders yet.
// The engine calls it once per round; buffers are recycled.
func (d *Directives) Reset(n int) {
	d.n = n
	d.senders = d.senders[:0]
	d.queue = d.queue[:0]
}

// AddSender appends a scripted sender. Senders must be added in ascending
// process order (the engine's state scan is ascending); queue marks an
// M3 poisoned queue, whose per-pair equivalent is QueueValue rather than
// FaultyValue.
func (d *Directives) AddSender(sender int, queue bool) {
	d.senders = append(d.senders, sender)
	d.queue = append(d.queue, queue)
}

// Seal marks every receiver's row omitted. The engine calls it after the
// last AddSender and before the consultation; it costs O(n), whatever the
// number of scripted senders.
func (d *Directives) Seal() {
	d.kinds = slices.Grow(d.kinds[:0], d.n)[:d.n]
	d.row = slices.Grow(d.row[:0], d.n)[:d.n]
	clear(d.kinds)
}

// N returns the receiver count.
func (d *Directives) N() int { return d.n }

// Len returns the scripted sender count.
func (d *Directives) Len() int { return len(d.senders) }

// Sender returns the process id of the k-th scripted sender.
func (d *Directives) Sender(k int) int { return d.senders[k] }

// IsQueue reports whether the k-th scripted sender is an M3 poisoned queue.
func (d *Directives) IsQueue(k int) bool { return d.queue[k] }

// SetRow directs every scripted sender to deliver v to receiver, replacing
// whatever the row held. A NaN value omits the whole row.
func (d *Directives) SetRow(receiver int, v float64) {
	d.checkReceiver(receiver)
	if math.IsNaN(v) {
		d.kinds[receiver] = RowOmitted
		return
	}
	d.kinds[receiver] = RowBroadcast
	d.row[receiver] = v
}

// Set directs the k-th scripted sender to deliver v to receiver. A NaN
// value is recorded as an omission.
func (d *Directives) Set(k, receiver int, v float64) {
	i := d.explicit(k, receiver)
	if math.IsNaN(v) {
		d.omits[i] = true
		return
	}
	d.values[i] = v
	d.omits[i] = false
}

// Omit directs the k-th scripted sender to send nothing to receiver (the
// default for every entry after Seal).
func (d *Directives) Omit(k, receiver int) {
	d.omits[d.explicit(k, receiver)] = true
}

// At returns the k-th scripted sender's directive for receiver.
func (d *Directives) At(k, receiver int) (v float64, omit bool) {
	d.checkEntry(k, receiver)
	switch d.kinds[receiver] {
	case RowBroadcast:
		return d.row[receiver], false
	case RowExplicit:
		i := receiver*len(d.senders) + k
		if d.omits[i] {
			return 0, true
		}
		return d.values[i], false
	}
	return 0, true
}

// Index returns the script index of the given sender, or ok=false if the
// sender is not scripted. Senders are ascending, so this is a binary search.
func (d *Directives) Index(sender int) (k int, ok bool) {
	k = sort.SearchInts(d.senders, sender)
	return k, k < len(d.senders) && d.senders[k] == sender
}

// Row returns the form of receiver's row. For a broadcast row, v points at
// the row's value and count is the number of scripted senders that deliver
// it; *v stays valid and unchanged until the next SetRow on the row or the
// next Seal, so a vote may read it in place. Other forms return v nil and
// count 0: an omitted row delivers nothing, and an explicit row's values
// are read by AppendRow.
func (d *Directives) Row(receiver int) (v *float64, count int, kind RowKind) {
	d.checkReceiver(receiver)
	kind = d.kinds[receiver]
	if kind == RowBroadcast {
		return &d.row[receiver], len(d.senders), kind
	}
	return nil, 0, kind
}

// AppendRow appends receiver's non-omitted directive values to dst, in
// scripted-sender (ascending process) order — the vote kernel's patch for
// an explicit row. A broadcast row appends m copies of its value, which is
// already ascending.
func (d *Directives) AppendRow(dst []float64, receiver int) []float64 {
	d.checkReceiver(receiver)
	m := len(d.senders)
	switch d.kinds[receiver] {
	case RowBroadcast:
		for range m {
			dst = append(dst, d.row[receiver])
		}
	case RowExplicit:
		base := receiver * m
		for k := 0; k < m; k++ {
			if !d.omits[base+k] {
				dst = append(dst, d.values[base+k])
			}
		}
	}
	return dst
}

// explicit turns receiver's row explicit, if it is not already, and
// returns the block index of the k-th sender's entry. The row's entries
// are filled from its current form, so a Set or Omit after SetRow changes
// that one entry only; the block is sized on first use.
func (d *Directives) explicit(k, receiver int) int {
	d.checkEntry(k, receiver)
	m := len(d.senders)
	base := receiver * m
	if d.kinds[receiver] == RowExplicit {
		return base + k
	}
	if size := d.n * m; len(d.values) < size {
		d.values = slices.Grow(d.values[:0], size)[:size]
		d.omits = slices.Grow(d.omits[:0], size)[:size]
	}
	v, omit := d.row[receiver], d.kinds[receiver] == RowOmitted
	for j := base; j < base+m; j++ {
		d.values[j] = v
		d.omits[j] = omit
	}
	d.kinds[receiver] = RowExplicit
	return base + k
}

// checkReceiver panics unless receiver names a row of the script.
func (d *Directives) checkReceiver(receiver int) {
	if uint(receiver) >= uint(d.n) {
		d.outOfRange(0, receiver)
	}
}

// checkEntry panics unless (k, receiver) names an entry of the script: a
// sender index past Len would otherwise address the next receiver's row.
func (d *Directives) checkEntry(k, receiver int) {
	if uint(k) >= uint(len(d.senders)) || uint(receiver) >= uint(d.n) {
		d.outOfRange(k, receiver)
	}
}

// outOfRange panics with the offending index, the way an out-of-range
// slice index does.
func (d *Directives) outOfRange(k, receiver int) {
	if uint(receiver) >= uint(d.n) {
		panic(fmt.Sprintf("mobile: Directives receiver %d out of range [0, %d)", receiver, d.n))
	}
	panic(fmt.Sprintf("mobile: Directives sender index %d out of range [0, %d)", k, len(d.senders)))
}

// RoundView is the argument of the batched consultation: the same
// omniscient View the per-pair calls receive, plus the round's fault plan.
// Faulty and Cured list the processes faulty respectively cured during the
// send phase, ascending. Like the View, a RoundView and its slices are
// backed by engine scratch: implementations must not mutate or retain them
// past the call (ViewRetainer restores defensive copies of the View; the
// Faulty/Cured slices are never retained by any contract).
type RoundView struct {
	View   *View
	Faulty []int
	Cured  []int
}

// RoundAdversary is an Adversary that can be consulted once per round with
// the full plan instead of once per (sender, receiver) pair. The engines
// consult every adversary through this interface — natively when the
// implementation provides it, through Adapt otherwise — exactly once per
// send phase. RoundDirectives fills d (prepared by the engine, every entry
// an omission) with the round's send script; entries left untouched remain
// omissions.
//
// Equivalence contract: filling d must be observably identical to the
// per-pair protocol evaluated in the pinned consultation order — senders
// ascending, receivers ascending within each sender, FaultyValue for live
// agents and QueueValue for M3 queues. "Observably" includes the draws an
// implementation takes from the View's Rng: a randomized adversary must
// consume the stream in that same pinned order, or its batched and
// per-pair behaviours diverge. The golden suite and internal/proptest pin
// this equivalence for every built-in.
type RoundAdversary interface {
	Adversary
	RoundDirectives(rv *RoundView, d *Directives)
}

// Adapter lifts a per-pair Adversary onto RoundAdversary by replaying the
// pinned consultation order. Wrapping is bit-identical to the pre-batch
// engines: same calls, same order, same Rng stream. It is how third-party
// Adversary implementations run on the batched engines without changes.
type Adapter struct {
	inner Adversary
}

// Adapt wraps a per-pair Adversary as a RoundAdversary. Adversaries that
// already implement RoundAdversary natively do not need it (see
// AsRoundAdversary); wrapping one anyway switches it to its per-pair code
// path, which the equivalence tests exploit.
func Adapt(a Adversary) *Adapter { return &Adapter{inner: a} }

// Unwrap returns the wrapped per-pair adversary. Marker interfaces
// (Stateful, ViewRetainer) are looked up through it — see IsStateful and
// RetainsViews.
func (ad *Adapter) Unwrap() Adversary { return ad.inner }

// Name implements Adversary.
func (ad *Adapter) Name() string { return ad.inner.Name() }

// Place implements Adversary.
func (ad *Adapter) Place(v *View) []int { return ad.inner.Place(v) }

// FaultyValue implements Adversary.
func (ad *Adapter) FaultyValue(v *View, faulty, receiver int) (float64, bool) {
	return ad.inner.FaultyValue(v, faulty, receiver)
}

// LeaveBehind implements Adversary.
func (ad *Adapter) LeaveBehind(v *View, p int) float64 { return ad.inner.LeaveBehind(v, p) }

// QueueValue implements Adversary.
func (ad *Adapter) QueueValue(v *View, cured, receiver int) (float64, bool) {
	return ad.inner.QueueValue(v, cured, receiver)
}

// RoundDirectives implements RoundAdversary by pulling every pair through
// the wrapped adversary in the pinned order: senders ascending (the order
// the engine registered them), receivers ascending within each sender.
func (ad *Adapter) RoundDirectives(rv *RoundView, d *Directives) {
	v := rv.View
	for k, m := 0, d.Len(); k < m; k++ {
		s := d.Sender(k)
		if d.IsQueue(k) {
			for r := 0; r < d.n; r++ {
				if val, omit := ad.inner.QueueValue(v, s, r); !omit {
					d.Set(k, r, val)
				}
			}
		} else {
			for r := 0; r < d.n; r++ {
				if val, omit := ad.inner.FaultyValue(v, s, r); !omit {
					d.Set(k, r, val)
				}
			}
		}
	}
}

var _ RoundAdversary = (*Adapter)(nil)

// AsRoundAdversary resolves an Adversary to its batched form: the adversary
// itself when it implements RoundAdversary natively, an Adapter otherwise.
// The engines call it once per run.
func AsRoundAdversary(a Adversary) RoundAdversary {
	if ra, ok := a.(RoundAdversary); ok {
		return ra
	}
	return Adapt(a)
}

// fillColumns is the shared batched shape of the camp-steering built-ins:
// faulty and queue values coincide and depend only on the receiver, so the
// steering rule is evaluated once per receiver and recorded as that
// receiver's broadcast row. This is the batching win the per-pair
// interface could not express: m×n interface calls and m×n range lookups
// collapse to n rule evaluations over the cached CorrectRange, and n
// stored values.
func fillColumns(d *Directives, value func(receiver int) float64) {
	if len(d.senders) == 0 {
		return
	}
	for r := 0; r < d.n; r++ {
		d.SetRow(r, value(r))
	}
}
