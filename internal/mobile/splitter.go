package mobile

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Splitter is the omniscient two-camp adversary behind the paper's lower
// bounds (§6). It maintains two camps of correct processes — a Low camp at
// value lo and a High camp at hi — and uses every power the model grants to
// keep both camps' post-reduction survivor sets single-valued, freezing the
// diameter forever when n equals the Table 2 bound:
//
//	M1, n=4f:  faulty f (asym, lo→Low / hi→High), cured f silent,
//	           camps f/f. A Low process receives 2f lo's and f hi's of
//	           m=3f values; trimming τ=f from each end leaves f lo's.
//	M2, n=5f:  faulty f, cured f broadcasting hi (symmetric), camps 2f/f.
//	           Low sees 3f lo / 2f hi, τ=2f trims every hi; High sees
//	           2f lo / 3f hi, trims every lo.
//	M3, n=6f:  faulty f and cured f both asymmetric (poisoned queues),
//	           camps 2f/2f. Low sees 4f lo / 2f hi; τ=2f trims every hi.
//	M4, n=3f:  faulty f (asym), camps f/f, m=3f, τ=f — the classical
//	           static construction; agents rotate through the Low camp,
//	           steering each released host back to lo.
//
// Agent movement for M1–M3 ping-pongs between two disjoint halves of a
// 2f-process pool, so the camps themselves are never infected and the f
// just-recovered processes are re-infected immediately — the maximum-
// pressure schedule (f faulty AND f cured in every round). For M4 the
// agents move onto f Low-camp members each round and the released hosts are
// steered back into the Low camp.
//
// Above the bound the same strategy degrades gracefully: the extra correct
// processes survive reduction in both camps' views and the diameter
// contracts at the algorithm's guaranteed rate, which is exactly the
// behaviour Table 2's sufficiency side predicts.
type Splitter struct {
	layout  Layout
	havePin bool
	mid     float64
	m4      lowestCorrect // the M4 placement's reusable buffers
}

// NewSplitter returns a fresh splitter adversary. A Splitter is stateful
// (it pins its camp geometry at the first placement) and must not be reused
// across runs.
func NewSplitter() *Splitter { return &Splitter{} }

// Name implements Adversary.
func (s *Splitter) Name() string { return "splitter" }

// FreshPerRun marks the splitter as stateful: it pins its camp geometry at
// the first placement and must not be shared across runs.
func (s *Splitter) FreshPerRun() {}

// Layout partitions the process indices for the splitter strategy: a pool
// of ping-pong hosts, a Low camp and a High camp, plus the camp values.
type Layout struct {
	// Pool holds the indices the agents cycle through (2f for M1–M3 where
	// a faulty and a cured cohort coexist; f for M4).
	Pool []int
	// Low and High are the camp index sets.
	Low, High []int
	// Lo and Hi are the camp values.
	Lo, Hi float64
}

// SplitterLayout computes the camp geometry for the given model and system
// size, using values lo and hi. The proportions realise each model's frozen
// equilibrium at n = Bound(f) (see the type comment) and degrade gracefully
// above it. It returns an error when n is too small to form two camps.
func SplitterLayout(model Model, n, f int, lo, hi float64) (Layout, error) {
	if !model.Valid() {
		return Layout{}, fmt.Errorf("mobile: invalid model %v", model)
	}
	if f < 0 || n <= 0 {
		return Layout{}, fmt.Errorf("mobile: invalid sizes n=%d f=%d", n, f)
	}
	poolSize := 2 * f
	if model == M4Buhrman {
		poolSize = f
	}
	rest := n - poolSize
	if f > 0 && rest < 2 {
		return Layout{}, fmt.Errorf("mobile: n=%d too small for splitter camps under %v with f=%d", n, model, f)
	}
	var lowSize int
	switch model {
	case M2Bonnet:
		// The M2 freeze needs camps 2f/f (the symmetric cured cohort
		// supports the High camp); generalize the 2:1 split to any rest.
		lowSize = rest - rest/3
	default:
		lowSize = rest - rest/2
	}
	if rest > 0 {
		if lowSize < 1 {
			lowSize = 1
		}
		if lowSize > rest-1 {
			lowSize = rest - 1
		}
	}
	l := Layout{Lo: lo, Hi: hi}
	for i := 0; i < poolSize; i++ {
		l.Pool = append(l.Pool, i)
	}
	for i := poolSize; i < poolSize+lowSize; i++ {
		l.Low = append(l.Low, i)
	}
	for i := poolSize + lowSize; i < n; i++ {
		l.High = append(l.High, i)
	}
	return l, nil
}

// Inputs returns the adversarial input assignment matching the layout: Low
// camp members start at lo, High camp members at hi, and pool members at hi
// — for initially-cured pool members the input doubles as the corrupted
// stored value the departed agent left behind, and hi is the value the M2
// equilibrium requires the cured cohort to broadcast.
func (l Layout) Inputs(n int) []float64 {
	in := make([]float64, n)
	for i := range in {
		in[i] = l.Hi
	}
	for _, i := range l.Low {
		in[i] = l.Lo
	}
	for _, i := range l.High {
		in[i] = l.Hi
	}
	return in
}

// InitialCured returns the processes that should start round 0 cured to
// reproduce the paper's lower-bound starting configuration (Theorems 3–4
// posit a cured process alongside the occupied one): the pool half the
// round-0 agents do not occupy. It is empty for M4, which has no cured
// state, and for f = 0.
func (l Layout) InitialCured(model Model, f int) []int {
	if model == M4Buhrman || f <= 0 || len(l.Pool) < 2*f {
		return nil
	}
	return append([]int(nil), l.Pool[f:2*f]...)
}

// pin fixes the camp geometry on first use.
func (s *Splitter) pin(v *View) {
	if s.havePin {
		return
	}
	lo, hi, ok := v.CorrectRange()
	if !ok {
		lo, hi = 0, 1
	}
	layout, err := SplitterLayout(v.Model, v.N, v.F, lo, hi)
	if err != nil {
		// Degenerate geometry (e.g. n too small): fall back to an empty
		// layout; the value rules below still steer by midpoint.
		layout = Layout{Lo: lo, Hi: hi}
	}
	s.layout = layout
	s.mid = (lo + hi) / 2
	s.havePin = true
}

// Place implements Adversary. See the type comment for the schedule.
func (s *Splitter) Place(v *View) []int {
	s.pin(v)
	if v.F == 0 {
		return nil
	}
	if v.Model == M4Buhrman {
		return s.placeM4(v)
	}
	// Ping-pong between the two pool halves: round parity selects the
	// cohort, so the f just-recovered processes host the agents again.
	pool := s.layout.Pool
	if len(pool) < 2*v.F {
		// Fallback for degenerate layouts: first f indices.
		out := make([]int, 0, v.F)
		for i := 0; i < v.F && i < v.N; i++ {
			out = append(out, i)
		}
		return out
	}
	if v.Round%2 == 0 {
		return pool[:v.F:v.F]
	}
	return pool[v.F : 2*v.F : 2*v.F]
}

// placeM4 selects the next hosts under M4: the f correct processes with the
// lowest votes (the Low camp), steering released hosts back to lo.
func (s *Splitter) placeM4(v *View) []int {
	if v.Round == 0 {
		// Initial corruption: the pool.
		if len(s.layout.Pool) >= v.F {
			return s.layout.Pool[:v.F:v.F]
		}
		out := make([]int, 0, v.F)
		for i := 0; i < v.F && i < v.N; i++ {
			out = append(out, i)
		}
		return out
	}
	return s.m4.place(v)
}

// lowestCorrect is the M4 placement after round 0 of the splitter and the
// greedy adversary: the f correct processes with the lowest votes. Its
// candidate buffer is reused from round to round.
type lowestCorrect struct {
	cands []candidate
}

// candidate is a correct process and its vote.
type candidate struct {
	id   int
	vote float64
}

// place returns the f correct processes with the lowest votes. The
// selection is stable — lowest votes first, index as tie-break — so the
// placement never depends on the candidates' scan order.
func (l *lowestCorrect) place(v *View) []int {
	cands := l.cands[:0]
	for i, st := range v.States {
		if st == StateCorrect && !math.IsNaN(v.Votes[i]) {
			cands = append(cands, candidate{i, v.Votes[i]})
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.vote < b.vote:
			return -1
		case a.vote > b.vote:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]int, 0, min(v.F, len(cands)))
	for i := 0; i < v.F && i < len(cands); i++ {
		out = append(out, cands[i].id)
	}
	l.cands = cands
	return out
}

// steer returns the camp value for a receiver: hi for High-camp receivers,
// lo for everyone else (Low camp, pool, cured — whose computed values never
// matter before they are re-infected).
func (s *Splitter) steer(v *View, receiver int) float64 {
	vote := v.Votes[receiver]
	if math.IsNaN(vote) {
		return s.layout.Lo
	}
	if vote > s.mid {
		return s.layout.Hi
	}
	return s.layout.Lo
}

// LeaveBehind implements Adversary. The corrupted state is hi: under M2 the
// cured cohort then broadcasts hi symmetrically, which is what props up the
// (smaller) High camp in the 2f/f equilibrium.
func (s *Splitter) LeaveBehind(v *View, p int) float64 {
	s.pin(v)
	return s.layout.Hi
}

// RoundDirectives implements Adversary: live agents and M3 poisoned queues
// alike send camp-targeted extremes, steer(receiver), so the camp geometry
// is pinned once and the steering rule evaluated once per receiver,
// broadcast across the scripted senders. With no scripted senders there is
// nothing to steer, so nothing is pinned either.
func (s *Splitter) RoundDirectives(rv *RoundView, d *Directives) {
	if d.Len() == 0 {
		return
	}
	s.pin(rv.View)
	fillColumns(d, func(receiver int) float64 { return s.steer(rv.View, receiver) })
}

var _ Adversary = (*Splitter)(nil)
