// Package trace records structured events from a protocol execution for
// debugging and for the cmd tools' -trace flag. A nil *Recorder is valid
// everywhere and records nothing, so instrumentation points never need
// guards.
package trace

import (
	"fmt"
	"strings"
)

// Kind labels an event type.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	KindMove    Kind = iota + 1 // agents relocated
	KindSend                    // one message (or deliberate omission)
	KindCompute                 // a process applied the voting function
	KindDecide                  // a process fixed its decision value
	KindNote                    // free-form annotation (checker verdicts etc.)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMove:
		return "move"
	case KindSend:
		return "send"
	case KindCompute:
		return "compute"
	case KindDecide:
		return "decide"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded step of an execution.
type Event struct {
	Round   int
	Kind    Kind
	From    int     // sender / moved-onto process / computing process
	To      int     // receiver; -1 when not applicable
	Value   float64 // message value / computed value
	Omitted bool    // send was an omission
	Text    string  // human annotation (notes, move summaries)
}

// Recorder accumulates events. It is not safe for concurrent use; give each
// run its own.
type Recorder struct {
	events []Event
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether events are being collected. Instrumentation
// points whose Event construction is itself expensive (fmt.Sprintf
// annotations, slice formatting) must guard with Enabled so a disabled
// trace costs nothing:
//
//	if rec.Enabled() {
//		rec.Record(trace.Event{Text: fmt.Sprintf(...)})
//	}
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends an event. It is a no-op on a nil Recorder.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Note records a free-form annotation for a round.
func (r *Recorder) Note(round int, format string, args ...any) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Round: round, Kind: KindNote, To: -1, Text: fmt.Sprintf(format, args...)})
}

// Events returns the recorded events in order. The caller must not mutate
// the returned slice. A nil Recorder returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events; 0 on a nil Recorder.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Render formats the trace as indented text, one round per block.
func (r *Recorder) Render() string {
	if r == nil || len(r.events) == 0 {
		return "(empty trace)\n"
	}
	var b strings.Builder
	round := -1
	for _, e := range r.events {
		if e.Round != round {
			round = e.Round
			fmt.Fprintf(&b, "round %d:\n", round)
		}
		switch e.Kind {
		case KindMove:
			fmt.Fprintf(&b, "  move    %s\n", e.Text)
		case KindSend:
			if e.Omitted {
				fmt.Fprintf(&b, "  send    p%d -> p%d (omitted)\n", e.From, e.To)
			} else {
				fmt.Fprintf(&b, "  send    p%d -> p%d value=%g\n", e.From, e.To, e.Value)
			}
		case KindCompute:
			fmt.Fprintf(&b, "  compute p%d value=%g\n", e.From, e.Value)
		case KindDecide:
			fmt.Fprintf(&b, "  decide  p%d value=%g\n", e.From, e.Value)
		case KindNote:
			fmt.Fprintf(&b, "  note    %s\n", e.Text)
		}
	}
	return b.String()
}
