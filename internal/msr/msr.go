// Package msr implements the Mean-Subsequence-Reduce (MSR) family of
// convergent voting algorithms from Kieckhafer & Azadmanesh, "Reaching
// Approximate Agreement with Mixed-Mode Faults" (IEEE TPDS 1994) — the
// algorithm class whose correctness under Mobile Byzantine Faults the paper
// establishes.
//
// Every algorithm in the class computes
//
//	F_MSR(N) = mean(Sel(Red_τ(N)))
//
// where N is the multiset of values received in a round, Red_τ removes the τ
// smallest and τ largest values (covering every possibly-erroneous value),
// and Sel selects a subsequence of the survivors. Concrete members differ
// only in Sel:
//
//   - FTA (fault-tolerant average): Sel = identity — the trimmed mean.
//   - FTM (fault-tolerant midpoint): Sel = {min, max} — the midpoint of the
//     reduced range, as in Welch–Lynch clock synchronization.
//   - DolevSelect: Sel = every τ-th element plus the last — Dolev et al.'s
//     (JACM 1986) averaging function with the 1/⌈(m−2τ)/τ⌉ rate.
//   - Median: Sel = middle element. Median is NOT a convergent MSR member
//     (no single-step contraction guarantee); it is included as the negative
//     control used by the ablation experiment (F3).
package msr

import (
	"fmt"
	"math"
	"sort"

	"mbfaa/internal/multiset"
)

// Algorithm is one member of the MSR class: a deterministic voting function
// applied in the computation phase of every round.
type Algorithm interface {
	// Name returns the canonical name used by flags, sweeps and reports.
	Name() string

	// Apply computes F_MSR(received) with trim parameter tau. It returns an
	// error when the multiset is too small to survive reduction; the engine
	// treats that as a configuration error, since the replica bounds
	// guarantee survivors whenever n > n_Mi.
	Apply(received multiset.Multiset, tau int) (float64, error)

	// Contraction returns the guaranteed per-round contraction factor C of
	// the diameter of correct values for a received multiset of size m,
	// trim tau, and at most asym senders whose values can differ between
	// two correct receivers (the asymmetric count of the fault census —
	// symmetric and benign faults are perceived identically and do not
	// drive views apart). The second return is false when no guarantee
	// exists (Median always; the others when the survivors cannot
	// outnumber the asymmetric values), in which case callers must use an
	// omniscient halting rule.
	Contraction(m, tau, asym int) (float64, bool)
}

// FTA is the fault-tolerant average: the mean of the reduced multiset.
type FTA struct{}

// Name implements Algorithm.
func (FTA) Name() string { return "fta" }

// Apply implements Algorithm.
func (FTA) Apply(received multiset.Multiset, tau int) (float64, error) {
	red, err := received.Trim(tau)
	if err != nil {
		return 0, fmt.Errorf("fta: %w", err)
	}
	mean, ok := red.Mean()
	if !ok {
		return 0, fmt.Errorf("fta: empty multiset after reduction")
	}
	return mean, nil
}

// Contraction implements Algorithm. Two correct receivers' multisets agree
// on all but at most asym entries, so after identical trimming their sorted
// survivor sequences are rank-shifted by at most asym positions; the means
// of the m−2τ survivors therefore differ by at most asym/(m−2τ) of the
// correct diameter. The guarantee is vacuous when asym ≥ survivors.
func (FTA) Contraction(m, tau, asym int) (float64, bool) {
	survivors := m - 2*tau
	if survivors <= 0 || asym < 0 {
		return 0, false
	}
	if asym == 0 {
		// All processes see identical multisets; one round suffices.
		return 0, true
	}
	if asym >= survivors {
		return 0, false
	}
	return float64(asym) / float64(survivors), true
}

// FTM is the fault-tolerant midpoint: the mean of {min, max} of the reduced
// multiset.
type FTM struct{}

// Name implements Algorithm.
func (FTM) Name() string { return "ftm" }

// Apply implements Algorithm.
func (FTM) Apply(received multiset.Multiset, tau int) (float64, error) {
	red, err := received.Trim(tau)
	if err != nil {
		return 0, fmt.Errorf("ftm: %w", err)
	}
	mid, ok := red.Midpoint()
	if !ok {
		return 0, fmt.Errorf("ftm: empty multiset after reduction")
	}
	return mid, nil
}

// Contraction implements Algorithm. When the survivors outnumber the
// asymmetric values, any two correct receivers' reduced ranges share a
// point (their multisets agree on all but asym entries), and the midpoints
// of two overlapping sub-intervals of ρ(U) differ by at most δ(U)/2.
func (FTM) Contraction(m, tau, asym int) (float64, bool) {
	survivors := m - 2*tau
	if survivors <= 0 || asym < 0 {
		return 0, false
	}
	if asym == 0 {
		return 0, true
	}
	if asym >= survivors {
		return 0, false
	}
	return 0.5, true
}

// DolevSelect is Dolev et al.'s selection-based averaging: every τ-th
// element of the reduced multiset (plus the last), then the mean.
type DolevSelect struct{}

// Name implements Algorithm.
func (DolevSelect) Name() string { return "dolev" }

// Apply implements Algorithm. The mean of the selected ranks is taken
// directly over the reduced multiset (MeanEvery), so a vote allocates no
// selection.
func (DolevSelect) Apply(received multiset.Multiset, tau int) (float64, error) {
	red, err := received.Trim(tau)
	if err != nil {
		return 0, fmt.Errorf("dolev: %w", err)
	}
	step := tau
	if step < 1 {
		step = 1
	}
	mean, err := red.MeanEvery(step)
	if err != nil {
		return 0, fmt.Errorf("dolev: %w", err)
	}
	return mean, nil
}

// Contraction implements Algorithm: the classic Dolev et al. rate
// 1/⌈(m−2τ)/τ⌉ when the selection keeps at least two elements. When the
// step exceeds the survivor count the selection degenerates to {min, max}
// and the algorithm inherits FTM's 1/2 guarantee (survivors must then
// outnumber the asymmetric values).
func (DolevSelect) Contraction(m, tau, asym int) (float64, bool) {
	survivors := m - 2*tau
	if survivors <= 0 || asym < 0 {
		return 0, false
	}
	if asym == 0 {
		return 0, true
	}
	if asym >= survivors {
		return 0, false
	}
	c := int(math.Ceil(float64(survivors) / float64(tau)))
	if c < 2 {
		return FTM{}.Contraction(m, tau, asym)
	}
	return 1 / float64(c), true
}

// Median selects the middle element of the reduced multiset. It satisfies
// validity (P1) but offers no single-step contraction guarantee (P2 can
// fail): with two camps of equal size an omniscient adversary keeps the
// medians of different correct processes at opposite camps indefinitely.
// It exists as the negative control in the F3 ablation.
type Median struct{}

// Name implements Algorithm.
func (Median) Name() string { return "median" }

// Apply implements Algorithm.
func (Median) Apply(received multiset.Multiset, tau int) (float64, error) {
	red, err := received.Trim(tau)
	if err != nil {
		return 0, fmt.Errorf("median: %w", err)
	}
	med, ok := red.Median()
	if !ok {
		return 0, fmt.Errorf("median: empty multiset after reduction")
	}
	return med, nil
}

// Contraction implements Algorithm: Median guarantees nothing.
func (Median) Contraction(m, tau, asym int) (float64, bool) { return 0, false }

// ApplyCapped applies the algorithm to the given raw values, capping the
// trim parameter so at least one value survives reduction (see
// ApplyReceived). It returns an error for an empty value set.
//
// ApplyCapped is the naive vote over one receiver's full set of received
// values — one sort per receiver — and the reference the base+patch
// kernel (KernelVote, ApplyReceived over a two-run multiset) is held to bit
// for bit: by this package's kernel tests, and per round of the engine by
// golden.CheckMatrixVotes. It takes ownership of values for the duration
// of the call and sorts the slice in place (multiset.FromOwned); callers
// that need the original order must copy first.
func ApplyCapped(algo Algorithm, values []float64, tau int) (float64, error) {
	ms, err := multiset.FromOwned(values)
	if err != nil {
		return 0, err
	}
	return ApplyReceived(algo, ms, tau)
}

// ApplyReceived applies the algorithm to a received multiset, capping the
// trim parameter so at least one value survives reduction (τ_eff =
// min(tau, (|N|−1)/2)). Above the replica bounds the cap never engages; it
// only matters when omissions shrink a sub-bound multiset. It returns an
// error for an empty multiset.
func ApplyReceived(algo Algorithm, received multiset.Multiset, tau int) (float64, error) {
	n := received.Len()
	if n == 0 {
		return 0, fmt.Errorf("msr: no values to vote on")
	}
	if maxTau := (n - 1) / 2; tau > maxTau {
		tau = maxTau
	}
	return algo.Apply(received, tau)
}

// RequiredRounds returns the number of rounds sufficient to shrink an
// initial diameter delta0 to at most eps at guaranteed per-round contraction
// c, i.e. the smallest R with c^R·delta0 ≤ eps. It returns an error for
// nonsensical inputs (eps ≤ 0, c outside [0,1)).
func RequiredRounds(delta0, eps, c float64) (int, error) {
	switch {
	case eps <= 0:
		return 0, fmt.Errorf("msr: epsilon %v must be positive", eps)
	case c < 0 || c >= 1:
		return 0, fmt.Errorf("msr: contraction factor %v outside [0,1)", c)
	case delta0 <= eps:
		return 0, nil
	case c == 0:
		return 1, nil
	}
	r := math.Log(eps/delta0) / math.Log(c)
	return int(math.Ceil(r)), nil
}

// All returns one instance of every algorithm, in a stable order suitable
// for sweeps and ablations: the three convergent members first, the Median
// negative control last.
func All() []Algorithm {
	return []Algorithm{FTA{}, FTM{}, DolevSelect{}, Median{}}
}

// Convergent returns the MSR members with a contraction guarantee.
func Convergent() []Algorithm {
	return []Algorithm{FTA{}, FTM{}, DolevSelect{}}
}

// Pure reports whether algo is one of this package's algorithms: FTA, FTM,
// DolevSelect or Median. Each of their Applys is a pure function of
// (received, tau) with no side effect, so a caller voting many receivers
// may apply it once per distinct received multiset and reuse the vote. The
// Algorithm contract promises determinism, not freedom from side effects —
// a wrapper may count or time its calls — so any other Algorithm reports
// false and is applied once per receiver.
func Pure(algo Algorithm) bool {
	switch algo.(type) {
	case FTA, FTM, DolevSelect, Median:
		return true
	}
	return false
}

// ByName returns the algorithm with the given Name. It is the flag-parsing
// entry point for the cmd tools.
func ByName(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("msr: unknown algorithm %q (have %v)", name, Names())
}

// Names returns the sorted names of all registered algorithms.
func Names() []string {
	all := All()
	names := make([]string, 0, len(all))
	for _, a := range all {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	return names
}
