package mobile

import (
	"fmt"
	"math"
	"slices"

	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
)

// View is the omniscient snapshot the engine hands the adversary at each
// decision point. Mobile Byzantine agents are computationally unbounded and
// see everything, so the adversary gets full state. The engine hands out
// views backed by its own live or scratch buffers (zero-copy hot path), so
// the Adversary contract below — never mutate, never retain — is
// load-bearing, not just hygiene.
type View struct {
	// Round is the current round index, starting at 0.
	Round int
	// Model is the fault model in force.
	Model Model
	// N and F are the process count and agent count.
	N, F int
	// Tau is the trim parameter the protocol uses this run.
	Tau int
	// Algo is the voting function the protocol applies each round. An
	// omniscient adversary knows the algorithm under attack; the greedy
	// adversary simulates it to score candidate strategies.
	Algo msr.Algorithm
	// Votes holds every process's current stored value. Entries for faulty
	// processes are whatever the agent last wrote (NaN until then).
	Votes []float64
	// States holds every process's failure state at the time of the call.
	States []State
	// Rng is a deterministic per-round random stream for randomized
	// adversaries. It is derived from the run seed, the round, and the
	// call site, so every replay of a seeded run draws the same values.
	Rng *prng.Source

	// Cached CorrectRange result. A View is immutable once handed to the
	// adversary, and the camp-steering adversaries query the range once
	// per receiver — without the cache that is an O(n²) scan per round,
	// which dominates large-n simulations.
	rangeDone        bool
	rangeLo, rangeHi float64
	rangeOK          bool
}

// CorrectRange returns the min and max vote over processes currently
// correct. ok is false when no process is correct (cannot happen when the
// replica bound holds, but the adversary API does not assume it). The scan
// runs once per view; it uses the builtin min and max, which treat ±0 and
// NaN as math.Min and math.Max do but compile inline.
func (v *View) CorrectRange() (lo, hi float64, ok bool) {
	if v.rangeDone {
		return v.rangeLo, v.rangeHi, v.rangeOK
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, s := range v.States {
		if s != StateCorrect || math.IsNaN(v.Votes[i]) {
			continue
		}
		lo = min(lo, v.Votes[i])
		hi = max(hi, v.Votes[i])
		ok = true
	}
	if !ok {
		lo, hi = 0, 0
	}
	v.rangeDone, v.rangeLo, v.rangeHi, v.rangeOK = true, lo, hi, ok
	return lo, hi, ok
}

// Adversary is the interface a mobile Byzantine adversary implements. The
// engine invokes it at the points the model grants the adversary power:
// agent placement, the state left behind on departure, and once per round
// the send script of every faulty process and, in M3, of every cured
// process's poisoned outgoing queue. Implementations must be deterministic
// given the View (including its Rng), must NOT mutate the View or its
// slices (they may be the engine's live state), and must NOT retain them
// past the call that received them (the backing buffers are recycled). An
// adversary that needs to retain views declares it by implementing
// ViewRetainer, which restores defensively copied snapshots at the cost of
// per-call allocations.
//
// An adversary written one (sender, receiver) pair at a time implements
// PairAdversary instead and runs through Adapt.
type Adversary interface {
	// Name is the identifier used by flags and reports.
	Name() string

	// Place returns the indices of the processes the f agents occupy for
	// the coming round. Returning fewer than f indices leaves the
	// remaining agents parked off-system (fewer faults — always allowed).
	// Indices out of range or duplicated are rejected by the engine.
	//
	// For M1–M3 the engine calls Place at the start of each round; for M4
	// between the send and receive phases (agents travel with messages).
	// Round 0's call sets the initial corruption for every model. The
	// engine copies the indices and never modifies them, so an
	// implementation may return a slice it keeps, such as a placement it
	// pinned for the run.
	Place(v *View) []int

	// LeaveBehind returns the corrupted local value the departing agent
	// writes into process p's state. In M2 this is exactly the value the
	// cured process will broadcast next round; in the other models it is
	// overwritten before it can do damage but is recorded for the trace.
	LeaveBehind(v *View, p int) float64

	// RoundDirectives scripts the round's send phase: it fills d, which
	// the engine has prepared with the scripted senders (ascending, M3
	// queues marked by IsQueue) and every entry omitted, with what each
	// scripted sender delivers to each receiver. Entries left untouched
	// stay omitted. The engine calls it exactly once per send phase, also
	// when no sender is scripted. A randomized adversary must draw from
	// the View's Rng in a fixed order so that seeded runs replay; Adapt
	// pins senders ascending, then receivers ascending.
	RoundDirectives(rv *RoundView, d *Directives)
}

// Stateful is the marker interface for adversaries whose instances carry
// per-run mutable state (the splitter pins its camp geometry at the first
// placement, the greedy adversary owns its lookahead's scratch, the static
// mixed-mode adversary pins its camp values). A stateful instance
// must be fresh per run: reusing one across runs replays stale decisions,
// and sharing one across concurrently executing runs is a data race. Batch
// layers use IsStateful to reject shared stateful instances eagerly and to
// demand constructors instead.
type Stateful interface {
	// FreshPerRun is a marker method; implementations are empty. Its
	// presence declares that the adversary instance must not be shared
	// across runs.
	FreshPerRun()
}

// wrapper is implemented by forwarding adversary decorators, such as a
// timing wrapper, so marker lookups can reach the decorated adversary.
type wrapper interface {
	Unwrap() Adversary
}

// unwrap returns the adversary a decorator wraps, or nil: the per-pair
// adversary inside an Adapter, or what a wrapper's Unwrap returns.
func unwrap(a any) any {
	switch w := a.(type) {
	case *Adapter:
		return w.inner
	case wrapper:
		return w.Unwrap()
	}
	return nil
}

// IsStateful reports whether the adversary declares per-run mutable state
// via the Stateful marker, looking through Adapters and wrappers (an
// adapted stateful per-pair adversary is as stateful as a bare one).
func IsStateful(a Adversary) bool {
	for x := any(a); x != nil; x = unwrap(x) {
		if _, ok := x.(Stateful); ok {
			return true
		}
	}
	return false
}

// RetainsViews reports whether the adversary declares, via ViewRetainer,
// that it keeps references to Views past the call that received them. Like
// IsStateful it looks through Adapters and wrappers, so the engine's
// defensive-copy decision survives adaptation.
func RetainsViews(a Adversary) bool {
	for x := any(a); x != nil; x = unwrap(x) {
		if vr, ok := x.(ViewRetainer); ok {
			return vr.RetainsView()
		}
	}
	return false
}

// ViewRetainer is the opt-in contract for adversaries that retain the View
// or its slices beyond the call that received them. The engines normally
// hand adversaries a reusable scratch view whose contents are only valid
// for the duration of the call — zero allocations on the simulation hot
// path. An adversary that stores views across calls must implement
// ViewRetainer and return true; the engine then reverts to freshly
// allocated defensive copies for every consultation. None of the built-in
// adversaries retain views.
type ViewRetainer interface {
	// RetainsView reports whether the adversary keeps references to a
	// View or its Votes/States slices after returning from a call.
	RetainsView() bool
}

// ValidatePlacement checks an adversary's placement against the system
// parameters: at most f distinct, in-range indices. It returns the cleaned
// placement (sorted, no duplicates), written over dst[:0] — a caller that
// validates every round passes the same buffer back, so a check allocates
// only when the buffer is too small. Duplicates are detected on the sorted
// copy rather than through a set. placement itself is not modified.
func ValidatePlacement(dst, placement []int, n, f int) ([]int, error) {
	if len(placement) > f {
		return nil, fmt.Errorf("mobile: adversary placed %d agents, only has %d", len(placement), f)
	}
	for _, p := range placement {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("mobile: agent placement %d out of range [0,%d)", p, n)
		}
	}
	out := append(dst[:0], placement...)
	slices.Sort(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("mobile: duplicate agent placement %d", out[i])
		}
	}
	return out, nil
}

// ByAdversaryName constructs a registered adversary by name. Randomized
// adversaries draw from View.Rng, so no seed is needed here.
func ByAdversaryName(name string) (Adversary, error) {
	switch name {
	case "splitter":
		return NewSplitter(), nil
	case "rotating":
		return NewRotating(), nil
	case "stationary":
		return NewStationary(), nil
	case "random":
		return NewRandom(), nil
	case "crash":
		return NewCrash(), nil
	case "greedy":
		return NewGreedy(), nil
	default:
		return nil, fmt.Errorf("mobile: unknown adversary %q (have %v)", name, AdversaryNames())
	}
}

// AdversaryFactoryByName returns a constructor for a registered adversary
// name: every call of the returned function yields a fresh instance, which
// is what batch runners need for stateful adversaries. The name is resolved
// eagerly, so an unknown name fails here, not on first use.
func AdversaryFactoryByName(name string) (func() Adversary, error) {
	if _, err := ByAdversaryName(name); err != nil {
		return nil, err
	}
	return func() Adversary {
		a, err := ByAdversaryName(name)
		if err != nil {
			// Cannot happen: the name was resolved above.
			panic(err)
		}
		return a
	}, nil
}

// AdversaryNames lists the registered adversary names.
func AdversaryNames() []string {
	return []string{"crash", "greedy", "random", "rotating", "splitter", "stationary"}
}
