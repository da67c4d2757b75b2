package mobile

import (
	"fmt"

	"mbfaa/internal/mixedmode"
)

// MixedMode is a *static* adversary realising an arbitrary Mixed-Mode fault
// census (a asymmetric, s symmetric, b benign faults) — the fault model of
// Kieckhafer & Azadmanesh that the paper maps the mobile models onto. It
// exists to validate the substrate claim underneath Table 2: MSR with
// τ = a+s converges iff n > 3a + 2s + b.
//
// Faults are pinned to the lowest process indices: [0, a) asymmetric
// (two-camp value splitting), [a, a+s) symmetric (broadcasting the high
// camp value uniformly), [a+s, a+s+b) benign (permanently silent). Agents
// never move, so no process is ever cured and the run is exactly a static
// mixed-mode execution. Pair it with MixedModeLayout's camp inputs and
// TrimOverride = a+s.
type MixedMode struct {
	Census mixedmode.Counts

	havePin bool
	lo, hi  float64
	mid     float64
	block   []int // the census block Place returns, kept from call to call
}

// NewMixedMode returns the static census adversary. The engine's F must be
// at least Census.Total().
func NewMixedMode(census mixedmode.Counts) *MixedMode {
	return &MixedMode{Census: census}
}

// Name implements Adversary.
func (m *MixedMode) Name() string { return "mixedmode" }

// FreshPerRun marks the census adversary as stateful: it pins its camp
// values at the first placement and must not be shared across runs.
func (m *MixedMode) FreshPerRun() {}

func (m *MixedMode) pin(v *View) {
	if m.havePin {
		return
	}
	lo, hi, ok := v.CorrectRange()
	if !ok {
		lo, hi = 0, 1
	}
	m.lo, m.hi, m.mid = lo, hi, (lo+hi)/2
	m.havePin = true
}

// Place implements Adversary: the census block, permanently.
func (m *MixedMode) Place(v *View) []int {
	total := m.Census.Total()
	if total > v.F {
		total = v.F
	}
	if size := min(total, v.N); m.block == nil || len(m.block) != size {
		m.block = make([]int, size)
		for i := range m.block {
			m.block[i] = i
		}
	}
	return m.block
}

// role classifies a pinned faulty index into its census class.
func (m *MixedMode) role(p int) mixedmode.Class {
	switch {
	case p < m.Census.Asymmetric:
		return mixedmode.ClassAsymmetric
	case p < m.Census.Asymmetric+m.Census.Symmetric:
		return mixedmode.ClassSymmetric
	case p < m.Census.Total():
		return mixedmode.ClassBenign
	default:
		return mixedmode.ClassCorrect
	}
}

// LeaveBehind implements Adversary (never invoked: agents never move).
func (m *MixedMode) LeaveBehind(v *View, p int) float64 {
	m.pin(v)
	return m.hi
}

// RoundDirectives implements Adversary: each scripted sender's census
// class fixes its whole column — asymmetric splits camps per receiver
// (lo to a NaN vote or one at most the pinned midpoint, hi otherwise),
// symmetric broadcasts hi, benign stays omitted. Pinning is skipped when
// no sender is scripted.
func (m *MixedMode) RoundDirectives(rv *RoundView, d *Directives) {
	if d.Len() == 0 {
		return
	}
	v := rv.View
	m.pin(v)
	for k, mm := 0, d.Len(); k < mm; k++ {
		switch m.role(d.Sender(k)) {
		case mixedmode.ClassAsymmetric:
			for r, n := 0, d.N(); r < n; r++ {
				vote := v.Votes[r]
				if vote != vote /* NaN */ || vote <= m.mid {
					d.Set(k, r, m.lo)
				} else {
					d.Set(k, r, m.hi)
				}
			}
		case mixedmode.ClassSymmetric:
			for r, n := 0, d.N(); r < n; r++ {
				d.Set(k, r, m.hi)
			}
		default:
			// benign: the column stays omitted
		}
	}
}

var _ Adversary = (*MixedMode)(nil)

// MixedModeLayout returns the adversarial input assignment for a static
// census run on n processes with values {lo, hi}: the faulty block first,
// then a Low camp of a+s processes at lo and the remainder at hi. At the
// boundary n = 3a+2s+b this is the exact freezing geometry (Low camp a+s,
// High camp a); above it the same inputs converge.
func MixedModeLayout(census mixedmode.Counts, n int, lo, hi float64) ([]float64, error) {
	if err := census.Validate(); err != nil {
		return nil, err
	}
	rest := n - census.Total()
	if rest < 2 {
		return nil, fmt.Errorf("mobile: n=%d leaves %d correct processes for census %v", n, rest, census)
	}
	lowSize := census.Asymmetric + census.Symmetric
	if lowSize < 1 {
		lowSize = 1
	}
	if lowSize > rest-1 {
		lowSize = rest - 1
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = hi
	}
	for i := census.Total(); i < census.Total()+lowSize; i++ {
		inputs[i] = lo
	}
	return inputs, nil
}
