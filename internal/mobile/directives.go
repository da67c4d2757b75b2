package mobile

import (
	"fmt"
	"math"
	"slices"

	"mbfaa/internal/multiset"
)

// Directives is one round's complete adversarial send script: for every
// scripted sender (faulty processes and, under M3, cured processes with a
// poisoned queue) and every receiver, either a value or an omission. The
// engine builds the sender list — in ascending process order — prepares
// the script with Seal, and hands it to Adversary.RoundDirectives to fill;
// every entry starts as an omission, so an adversary only writes the pairs
// it wants delivered. Set and SetRow sanitise NaN into an omission (NaN
// has no place in a multiset).
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
// process order (the engine's state scan is ascending); queue marks a
// cured process's M3 poisoned queue rather than a live agent.
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

// RoundView is the argument of Adversary.RoundDirectives: the omniscient
// View of the send phase plus the round's fault plan. Faulty and Cured
// list the processes faulty respectively cured during the send phase,
// ascending. Base is the round's sealed base: the values of the symmetric
// senders (correct processes and M2-cured rebroadcasters; M1-cured senders
// are silent), sorted and NaN-checked once, which every receiver hears in
// full before its row of the script is added; it is nil when the caller
// sealed none (the engine always seals one). Like the View, a RoundView
// and everything it points to are backed by engine scratch:
// implementations must not mutate or retain them past the call
// (ViewRetainer restores defensive copies of the View; the Faulty/Cured
// slices and the Base are never retained by any contract).
type RoundView struct {
	View   *View
	Faulty []int
	Cured  []int
	Base   *multiset.Multiset
}

// fillColumns is the shared script of the camp-steering built-ins: faulty
// and queue values coincide and depend only on the receiver, so the
// steering rule is evaluated once per receiver and recorded as that
// receiver's broadcast row — n rule evaluations over the cached
// CorrectRange and n stored values, whatever the number of scripted
// senders.
func fillColumns(d *Directives, value func(receiver int) float64) {
	if len(d.senders) == 0 {
		return
	}
	for r := 0; r < d.n; r++ {
		d.SetRow(r, value(r))
	}
}
