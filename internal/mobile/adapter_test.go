package mobile

import (
	"math"
	"testing"
)

// pairStub is a per-pair adversary whose answers tell FaultyValue from
// QueueValue and delivered values from omissions and NaNs: a live agent
// s sends receiver r the value 100s+r, a queue sends -(100s+r), every
// third pair answers NaN and every fourth receiver is omitted with a
// value attached. It logs each call so the test can check their order.
type pairStub struct {
	calls *[]stubCall
}

type stubCall struct {
	sender, receiver int
	queue            bool
}

func (pairStub) Name() string                   { return "pair-stub" }
func (pairStub) Place(*View) []int              { return nil }
func (pairStub) LeaveBehind(*View, int) float64 { return 0 }
func (p pairStub) FaultyValue(v *View, s, r int) (float64, bool) {
	return p.answer(s, r, false)
}
func (p pairStub) QueueValue(v *View, s, r int) (float64, bool) {
	return p.answer(s, r, true)
}

func (p pairStub) answer(s, r int, queue bool) (float64, bool) {
	*p.calls = append(*p.calls, stubCall{s, r, queue})
	val := float64(100*s + r)
	if queue {
		val = -val
	}
	switch {
	case (s+r)%3 == 0:
		return math.NaN(), false
	case r%4 == 1:
		return val, true
	}
	return val, false
}

// TestAdapterDispatchesPerEntry pins the Adapter entry by entry: live
// agents are asked FaultyValue and M3 queues QueueValue, each pair exactly
// once, senders ascending and receivers ascending; an omission or a NaN
// answer leaves the entry omitted, and any other value is delivered.
func TestAdapterDispatchesPerEntry(t *testing.T) {
	const n = 7
	var calls []stubCall
	d := &Directives{}
	d.Reset(n)
	d.AddSender(0, false)
	d.AddSender(4, true)
	d.AddSender(5, false)
	d.Seal()
	Adapt(pairStub{&calls}).RoundDirectives(&RoundView{View: &View{N: n}, Faulty: []int{0, 5}, Cured: []int{4}}, d)

	var want []stubCall
	for k := 0; k < d.Len(); k++ {
		for r := 0; r < n; r++ {
			want = append(want, stubCall{d.Sender(k), r, d.IsQueue(k)})
		}
	}
	if len(calls) != len(want) {
		t.Fatalf("%d per-pair calls, want %d", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
	}

	for k := 0; k < d.Len(); k++ {
		s := d.Sender(k)
		for r := 0; r < n; r++ {
			wantVal := float64(100*s + r)
			if d.IsQueue(k) {
				wantVal = -wantVal
			}
			wantOmit := (s+r)%3 == 0 || r%4 == 1
			got, omit := d.At(k, r)
			if omit != wantOmit || (!omit && got != wantVal) {
				t.Errorf("entry (sender %d, receiver %d) = (%v, %v), want (%v, %v)", s, r, got, omit, wantVal, wantOmit)
			}
		}
	}
}

// statefulPair and retainingPair are per-pair adversaries carrying the
// Stateful and ViewRetainer markers.
type statefulPair struct{ pairStub }

func (statefulPair) FreshPerRun() {}

type retainingPair struct{ pairStub }

func (retainingPair) RetainsView() bool { return true }

// forwarder is a decorator like a timing wrapper: it forwards every call
// and exposes the decorated adversary through Unwrap.
type forwarder struct{ Adversary }

func (f forwarder) Unwrap() Adversary { return f.Adversary }

// TestMarkersLookThroughAdapter pins the wrapper-aware marker lookups:
// statefulness and view retention must survive adaptation and forwarding
// decorators, or batch layers would share stateful instances and the
// engine would hand out scratch views to retaining adversaries.
func TestMarkersLookThroughAdapter(t *testing.T) {
	if !IsStateful(Adapt(statefulPair{})) {
		t.Error("IsStateful lost the Stateful marker through Adapt")
	}
	if IsStateful(Adapt(pairStub{})) {
		t.Error("IsStateful invented a Stateful marker through Adapt")
	}
	if !RetainsViews(Adapt(retainingPair{})) {
		t.Error("RetainsViews lost the ViewRetainer marker through Adapt")
	}
	if RetainsViews(NewRotating()) {
		t.Error("RetainsViews reported true for a non-retaining adversary")
	}
	if !IsStateful(forwarder{NewSplitter()}) || IsStateful(forwarder{NewRotating()}) {
		t.Error("IsStateful does not look through a forwarding wrapper")
	}
	if !RetainsViews(forwarder{Adapt(retainingPair{})}) || RetainsViews(forwarder{Adapt(pairStub{})}) {
		t.Error("RetainsViews does not look through a wrapper and an Adapter")
	}
	if ad := Adapt(pairStub{}); ad.Unwrap().Name() != "pair-stub" {
		t.Error("Unwrap did not return the wrapped adversary")
	}
}

// TestFactoryResolvesBatched pins AdversaryFactoryByName's contract: every
// call resolves the name to a fresh instance carrying that name, which the
// engine consults once per round with no adapter.
func TestFactoryResolvesBatched(t *testing.T) {
	for _, name := range AdversaryNames() {
		factory, err := AdversaryFactoryByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := factory(), factory()
		if a.Name() != name {
			t.Errorf("factory for %q built %q", name, a.Name())
		}
		if IsStateful(a) && a == b {
			t.Errorf("%s: factory returned one stateful instance twice", name)
		}
	}
}
