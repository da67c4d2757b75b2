package core

import (
	"math"

	"mbfaa/internal/multiset"
)

// Result is the outcome of one protocol execution.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether the non-faulty diameter reached ε before
	// MaxRounds (always true for FixedRounds runs that ended within ε;
	// false when the cap was hit first).
	Converged bool
	// Votes are the final stored values (NaN for processes faulty at the
	// end).
	Votes []float64
	// Decided[i] reports whether process i decided (i.e. was non-faulty
	// when the protocol halted).
	Decided []bool
	// InitialCorrectRange is ρ of the inputs of initially-correct
	// processes — the Validity baseline.
	InitialCorrectRange multiset.Interval
	// DiameterSeries records the non-faulty vote diameter: entry 0 is the
	// initial correct-input diameter, entry k+1 the diameter after round k.
	DiameterSeries []float64
	// Check is the invariant-checker report; nil unless
	// Config.EnableCheckers was set.
	Check *CheckReport
}

// DecisionDiameter returns the spread of the decided values: the quantity
// ε-Agreement bounds. It returns 0 when fewer than two processes decided.
func (r *Result) DecisionDiameter() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	count := 0
	for i, ok := range r.Decided {
		if !ok || math.IsNaN(r.Votes[i]) {
			continue
		}
		lo = min(lo, r.Votes[i])
		hi = max(hi, r.Votes[i])
		count++
	}
	if count < 2 {
		return 0
	}
	return hi - lo
}

// EpsilonAgreement reports whether every pair of decided values is within
// eps of each other.
func (r *Result) EpsilonAgreement(eps float64) bool {
	return r.DecisionDiameter() <= eps
}

// Valid reports the Validity property: every decision lies in the range of
// the initially-correct processes' inputs (with ulp-scale tolerance; see
// the checker slack constants).
func (r *Result) Valid() bool {
	for i, ok := range r.Decided {
		if !ok {
			continue
		}
		if math.IsNaN(r.Votes[i]) || !r.InitialCorrectRange.ContainsWithin(r.Votes[i], 1e-12) {
			return false
		}
	}
	return true
}

// Decisions returns the decided (process, value) pairs in process order.
func (r *Result) Decisions() (ids []int, values []float64) {
	for i, ok := range r.Decided {
		if ok {
			ids = append(ids, i)
			values = append(values, r.Votes[i])
		}
	}
	return ids, values
}

// FinalDiameter returns the last entry of the diameter series (the initial
// diameter if no round ran).
func (r *Result) FinalDiameter() float64 {
	if len(r.DiameterSeries) == 0 {
		return 0
	}
	return r.DiameterSeries[len(r.DiameterSeries)-1]
}
