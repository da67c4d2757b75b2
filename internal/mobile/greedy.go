package mobile

import (
	"math"

	"mbfaa/internal/multiset"
)

// Greedy is a one-round-lookahead adversary: each round it simulates the
// protocol's computation phase under a small set of candidate value
// strategies and commits to the one that maximizes the next-round diameter
// of non-faulty values. It is the empirical worst-case probe used by the
// algorithm-ablation experiment (F3): its measured contraction factors
// lower-bound how badly each MSR member can be hurt.
//
// The lookahead shares the engine's base+patch form of a received
// multiset. Every candidate strategy sends each receiver a value fixed by
// the receiver's camp, so it scores all of them from two received
// multisets per round, both over the round's sealed base that the engine
// hands it in the RoundView (see lookahead).
//
// Placement follows the splitter's maximum-pressure schedule (ping-pong
// pool for M1–M3, lowest-vote rotation for M4); the search is over value
// strategies only, because the departing agent must fix LeaveBehind one
// round before the value is broadcast and cannot search retroactively.
type Greedy struct {
	// The two camp values whose constant runs the lookahead's received
	// multisets read in place, refilled every round.
	ends [2]float64
	// The M4 placement's candidate buffer.
	m4 lowestCorrect
}

// NewGreedy returns a fresh greedy adversary. Greedy is stateful and must
// not be reused across runs.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Adversary.
func (g *Greedy) Name() string { return "greedy" }

// FreshPerRun marks the greedy adversary as stateful: it owns the
// lookahead's scratch and must not be shared across runs.
func (g *Greedy) FreshPerRun() {}

// valueRule is one candidate strategy: what a faulty (or M3-cured) process
// sends to each receiver. Every rule sends the correct minimum or maximum,
// chosen by the receiver's camp alone.
type valueRule int

const (
	ruleCampSplit valueRule = iota + 1 // lo to low camp, hi to high camp
	ruleInverted                       // hi to low camp, lo to high camp
	ruleAllLo                          // lo to everyone
	ruleAllHi                          // hi to everyone
)

var allValueRules = [...]valueRule{ruleCampSplit, ruleInverted, ruleAllLo, ruleAllHi}

// lowCamp reports whether a receiver holding vote is in the low camp of
// the correct range [lo, hi]; a NaN vote counts as low.
func lowCamp(vote, lo, hi float64) bool {
	return math.IsNaN(vote) || vote <= (lo+hi)/2
}

// high reports whether the rule sends a receiver in the given camp the
// correct maximum rather than the minimum.
func (r valueRule) high(low bool) bool {
	switch r {
	case ruleCampSplit:
		return !low
	case ruleInverted:
		return low
	case ruleAllLo:
		return false
	default:
		return true
	}
}

// apply returns the value the rule prescribes for a receiver. With no
// correct process CorrectRange reports lo = hi = 0, so every rule sends 0.
func (r valueRule) apply(v *View, receiver int) float64 {
	lo, hi, _ := v.CorrectRange()
	if r.high(lowCamp(v.Votes[receiver], lo, hi)) {
		return hi
	}
	return lo
}

// Place implements Adversary with the splitter's schedule.
func (g *Greedy) Place(v *View) []int {
	if v.F == 0 {
		return nil
	}
	if v.Model == M4Buhrman && v.Round > 0 {
		return g.m4.place(v)
	}
	if 2*v.F <= v.N {
		out := make([]int, 0, v.F)
		start := 0
		if v.Round%2 == 1 {
			start = v.F
		}
		for i := 0; i < v.F; i++ {
			out = append(out, start+i)
		}
		return out
	}
	out := make([]int, 0, v.F)
	for i := 0; i < v.F && i < v.N; i++ {
		out = append(out, i)
	}
	return out
}

// decide runs the lookahead over the round's sealed base and returns the
// winning rule: the first rule, in allValueRules order, with the largest
// diameter.
func (g *Greedy) decide(rv *RoundView) valueRule {
	best, bestDiam := ruleCampSplit, math.Inf(-1)
	for i, d := range g.lookahead(rv.View, rv.Base) {
		if d > bestDiam {
			best, bestDiam = allValueRules[i], d
		}
	}
	return best
}

// lookahead plays the round's send/receive/compute under every candidate
// rule and returns, in allValueRules order, each rule's post-round diameter
// of non-faulty computed values (0 when no receiver computes one).
//
// It shares the engine's base+patch form of a received multiset (see the
// round kernel, internal/core/kernel.go). Every receiver hears the same
// base: the correct votes and the M2-cured rebroadcasts, M1-cured senders
// being silent, sorted once by the engine, which hands it over as
// RoundView.Base. On top of it come the m asymmetric senders — the faulty
// ones, and under M3 the cured ones — and every rule has all m send a
// receiver the same camp value, lo or hi. So across all rules a receiver
// hears one of just two multisets, base ∪ {lo×m} and base ∪ {hi×m}, each
// the base plus a constant run. Each is voted on once
// (msr.Algorithm.Apply is deterministic), and a rule's diameter is the
// spread of the votes it hands the camps that hold a non-faulty receiver.
// Without a base (nil) no receiver has a value to compute from.
func (g *Greedy) lookahead(v *View, base *multiset.Multiset) (diam [len(allValueRules)]float64) {
	if v.Algo == nil || base == nil {
		return diam
	}
	lo, hi, _ := v.CorrectRange()
	var camps [2]bool // camps[0]: a non-faulty receiver is low; [1]: high
	m := 0
	for j, s := range v.States {
		if s == StateFaulty || s == StateCured && v.Model == M3Sasaki {
			m++
		}
		if s != StateFaulty {
			if lowCamp(v.Votes[j], lo, hi) {
				camps[0] = true
			} else {
				camps[1] = true
			}
		}
	}
	// votes[0] is the vote on base ∪ {lo×m}, votes[1] on base ∪ {hi×m}.
	// The runs read their value from g.ends, which outlives the votes.
	var votes [2]float64
	var voted [2]bool
	g.ends = [2]float64{lo, hi}
	for k := range g.ends {
		received, err := base.WithRepeated(&g.ends[k], m)
		if err != nil {
			continue
		}
		if votes[k], err = v.Algo.Apply(received, v.Tau); err == nil {
			voted[k] = true
		}
	}
	for i, rule := range allValueRules {
		dlo, dhi := math.Inf(1), math.Inf(-1)
		scored := false
		for c, present := range camps {
			k := 0
			if rule.high(c == 0) {
				k = 1
			}
			if !present || !voted[k] {
				continue
			}
			dlo = min(dlo, votes[k])
			dhi = max(dhi, votes[k])
			scored = true
		}
		if scored {
			diam[i] = dhi - dlo
		}
	}
	return diam
}

// LeaveBehind implements Adversary: park the corrupted state at the correct
// maximum (the splitter's choice; searching here would require two-round
// lookahead for no observed gain).
func (g *Greedy) LeaveBehind(v *View, p int) float64 {
	_, hi, ok := v.CorrectRange()
	if !ok {
		return 0
	}
	return hi
}

// RoundDirectives implements Adversary: one lookahead decides the round's
// rule, which live agents and M3 queues alike follow; it is applied once
// per receiver and broadcast across the scripted senders. With no scripted
// senders there is nothing to decide, so the lookahead is skipped.
func (g *Greedy) RoundDirectives(rv *RoundView, d *Directives) {
	if d.Len() == 0 {
		return
	}
	rule := g.decide(rv)
	fillColumns(d, func(receiver int) float64 { return rule.apply(rv.View, receiver) })
}

var _ Adversary = (*Greedy)(nil)
