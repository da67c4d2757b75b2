package mobile

import "math"

// campValue is the shared value-steering rule used by the non-splitter
// adversaries: push receivers below the current correct midpoint toward the
// correct minimum and the rest toward the maximum. Byzantine values outside
// the correct range are strictly weaker (the reduction trims them), so the
// strongest admissible pressure is at the correct extremes.
func campValue(v *View, receiver int) float64 {
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return 0
	}
	vote := v.Votes[receiver]
	if math.IsNaN(vote) {
		return lo
	}
	if vote > (lo+hi)/2 {
		return hi
	}
	return lo
}

// Stationary keeps the agents on processes 0..f-1 forever: the static
// Byzantine baseline used by the mobile-vs-static experiment (F4). Under a
// stationary adversary no process is ever cured, so the system behaves as
// the classical n > 3f static setting while the protocol still pays the
// mobile-model trim τ.
type Stationary struct{}

// NewStationary returns the static-placement adversary.
func NewStationary() Stationary { return Stationary{} }

// Name implements Adversary.
func (Stationary) Name() string { return "stationary" }

// Place implements Adversary: agents never move.
func (Stationary) Place(v *View) []int {
	out := make([]int, 0, v.F)
	for i := 0; i < v.F && i < v.N; i++ {
		out = append(out, i)
	}
	return out
}

// LeaveBehind implements Adversary (never invoked: agents never leave).
func (Stationary) LeaveBehind(v *View, p int) float64 {
	_, hi, _ := v.CorrectRange()
	return hi
}

// RoundDirectives implements Adversary: live agents and M3 queues alike
// send each receiver the camp value, which depends only on the receiver,
// so it is evaluated once per receiver and broadcast across the scripted
// senders.
func (Stationary) RoundDirectives(rv *RoundView, d *Directives) {
	fillColumns(d, func(receiver int) float64 { return campValue(rv.View, receiver) })
}

// Rotating sweeps the agents across the ring: in round r the agents occupy
// processes (r·f+i) mod n. Every process is infected recurrently, which is
// the schedule that exercises the "every process may be corrupted during an
// execution" character of mobile faults; it is the default stress adversary
// for the Theorem 1/2 experiments.
type Rotating struct{}

// NewRotating returns the sweeping adversary.
func NewRotating() Rotating { return Rotating{} }

// Name implements Adversary.
func (Rotating) Name() string { return "rotating" }

// Place implements Adversary.
func (Rotating) Place(v *View) []int {
	if v.N == 0 || v.F == 0 {
		return nil
	}
	out := make([]int, 0, v.F)
	start := (v.Round * v.F) % v.N
	for i := 0; i < v.F && i < v.N; i++ {
		out = append(out, (start+i)%v.N)
	}
	return out
}

// LeaveBehind implements Adversary: alternate extremes by process parity so
// the corrupted states straddle the correct range.
func (Rotating) LeaveBehind(v *View, p int) float64 {
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return 0
	}
	if p%2 == 0 {
		return hi
	}
	return lo
}

// RoundDirectives implements Adversary: as Stationary's, one camp-value
// evaluation per receiver, broadcast across the scripted senders.
func (Rotating) RoundDirectives(rv *RoundView, d *Directives) {
	fillColumns(d, func(receiver int) float64 { return campValue(rv.View, receiver) })
}

// Random places agents uniformly and sends uniform values spanning slightly
// beyond the correct range (the overshoot is trimmed, which the tests rely
// on to exercise reduction). It is the background-noise adversary for
// property tests.
type Random struct{}

// NewRandom returns the randomized adversary. All draws come from the
// engine-provided per-round stream, so runs remain reproducible.
func NewRandom() Random { return Random{} }

// Name implements Adversary.
func (Random) Name() string { return "random" }

// Place implements Adversary.
func (Random) Place(v *View) []int {
	if v.F == 0 || v.N == 0 {
		return nil
	}
	perm := v.Rng.Perm(v.N)
	return perm[:min(v.F, len(perm))]
}

// LeaveBehind implements Adversary.
func (Random) LeaveBehind(v *View, p int) float64 {
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return v.Rng.Range(-1, 1)
	}
	pad := (hi - lo) / 2
	return v.Rng.Range(lo-pad, hi+pad)
}

// RoundDirectives implements Adversary. Live agents and M3 queues follow
// one rule: each entry is omitted with probability 0.1, and otherwise
// uniform in the correct range widened by half its diameter on each side
// (uniform in [-1, 1) with no correct process). The Rng stream is drawn
// senders ascending, then receivers ascending, one omission draw per
// entry and one value draw per delivered entry.
func (Random) RoundDirectives(rv *RoundView, d *Directives) {
	v := rv.View
	for k, m := 0, d.Len(); k < m; k++ {
		for r, n := 0, d.N(); r < n; r++ {
			if v.Rng.Bool(0.1) {
				continue // omission: the entry is already omitted
			}
			lo, hi, ok := v.CorrectRange()
			if !ok {
				d.Set(k, r, v.Rng.Range(-1, 1))
				continue
			}
			pad := (hi - lo) / 2
			d.Set(k, r, v.Rng.Range(lo-pad, hi+pad))
		}
	}
}

// Crash makes every faulty process mute: the benign-only control. Runs
// under Crash isolate the cost of omissions (and, for M2, of corrupted
// cured state) from active Byzantine interference.
type Crash struct{}

// NewCrash returns the omission-only adversary.
func NewCrash() Crash { return Crash{} }

// Name implements Adversary.
func (Crash) Name() string { return "crash" }

// Place implements Adversary: same sweep as Rotating so omissions hit
// everyone over time.
func (Crash) Place(v *View) []int { return Rotating{}.Place(v) }

// LeaveBehind implements Adversary: the crash adversary does not corrupt
// state; it leaves the midpoint of the correct range, the mildest value.
func (Crash) LeaveBehind(v *View, p int) float64 {
	lo, hi, ok := v.CorrectRange()
	if !ok {
		return 0
	}
	return (lo + hi) / 2
}

// RoundDirectives implements Adversary: every faulty process and every M3
// queue is mute. Every entry stays omitted, which is the script's
// post-Seal default, so there is nothing to write.
func (Crash) RoundDirectives(rv *RoundView, d *Directives) {}

var (
	_ Adversary = Stationary{}
	_ Adversary = Rotating{}
	_ Adversary = Random{}
	_ Adversary = Crash{}
)
