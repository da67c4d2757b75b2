package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"mbfaa/internal/transport"
)

// newTestGroup starts a Group over an in-memory hub sized for the test.
func newTestGroup(t *testing.T, ctx context.Context, n, rounds int) (*Group, *transport.Channel) {
	t.Helper()
	hub, err := transport.NewChannel(n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = hub.Link(i)
	}
	g := NewGroup(ctx, links)
	t.Cleanup(func() {
		_ = hub.Close()
		g.Join()
	})
	return g, hub
}

// echo is a minimal Machine: each round it sends value to every node and
// closes once want frames of that round have arrived (or at the deadline).
// It records every frame handed to it.
type echo struct {
	n, rounds, want int
	value           float64
	round           int
	open            bool
	seen            map[int]int
	got             []transport.Message
	expired         int
}

func newEcho(n, rounds int, value float64) *echo {
	return &echo{n: n, rounds: rounds, want: n, value: value, seen: make(map[int]int)}
}

func (e *echo) Begin() []transport.Message {
	if e.open || e.Done() {
		return nil
	}
	e.open = true
	out := make([]transport.Message, 0, e.n)
	for to := range e.n {
		out = append(out, transport.Message{To: to, Round: e.round, Value: e.value})
	}
	return out
}

func (e *echo) Deliver(m transport.Message) {
	e.got = append(e.got, m)
	e.seen[m.Round]++
}

func (e *echo) Settle() bool {
	if !e.open || e.seen[e.round] < e.want {
		return false
	}
	e.open = false
	e.round++
	return true
}

func (e *echo) Expire(round int) bool {
	if !e.open || round != e.round {
		return false
	}
	e.expired++
	e.open = false
	e.round++
	return true
}

func (e *echo) Round() int { return e.round }
func (e *echo) Done() bool { return e.round >= e.rounds }

// echoJob builds a job of n echo machines sending value for rounds rounds,
// and the channel its Done closes.
func echoJob(id uint32, n, rounds int, value float64, timeout time.Duration) (*Job, []*echo, chan struct{}) {
	done := make(chan struct{})
	ms := make([]*echo, n)
	j := &Job{ID: id, Machines: make([]Machine, n), Timeout: timeout, Exit: func(_ int, last bool) {
		if last {
			close(done)
		}
	}}
	for i := range ms {
		ms[i] = newEcho(n, rounds, value)
		j.Machines[i] = ms[i]
	}
	return j, ms, done
}

// wait blocks until done closes.
func wait(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("job did not finish")
	}
}

// TestGroupRoutesByInstance: frames reach exactly the instance they name,
// with the instance id and epoch stamped on the wire and the sender's id
// stamped by the link.
func TestGroupRoutesByInstance(t *testing.T) {
	g, _ := newTestGroup(t, context.Background(), 2, 4)
	a, am, adone := echoJob(1, 2, 2, 10, time.Second)
	b, bm, bdone := echoJob(2, 2, 2, 20, time.Second)
	for _, j := range []*Job{a, b} {
		if err := g.Host(j); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, adone)
	wait(t, bdone)
	for _, tc := range []struct {
		j  *Job
		ms []*echo
		v  float64
	}{{a, am, 10}, {b, bm, 20}} {
		for node, m := range tc.ms {
			if len(m.got) != 4 || m.expired != 0 {
				t.Fatalf("instance %d node %d: %d frames, %d expiries, want 4/0", tc.j.ID, node, len(m.got), m.expired)
			}
			for _, msg := range m.got {
				if msg.Value != tc.v || msg.Instance != tc.j.ID || msg.Seq != tc.j.epoch || msg.To != node {
					t.Errorf("instance %d node %d received %+v", tc.j.ID, node, msg)
				}
			}
		}
	}
}

// TestGroupDuplicateRegistration: a live instance id cannot be hosted twice,
// and the failed Host leaves nothing behind; after retirement it can.
func TestGroupDuplicateRegistration(t *testing.T) {
	g, _ := newTestGroup(t, context.Background(), 2, 4)
	first, ms, done := echoJob(7, 2, 1, 1, 50*time.Millisecond)
	for _, m := range ms {
		m.want = 3 // never reached: the round closes at its deadline
	}
	if err := g.Host(first); err != nil {
		t.Fatal(err)
	}
	dup, _, _ := echoJob(7, 2, 1, 1, time.Second)
	if err := g.Host(dup); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	wait(t, done)
	if ms[0].expired != 1 || ms[1].expired != 1 {
		t.Fatalf("expiries %d/%d, want 1/1", ms[0].expired, ms[1].expired)
	}
	again, _, done := echoJob(7, 2, 1, 1, time.Second)
	if err := g.Host(again); err != nil {
		t.Fatalf("re-registration after retirement failed: %v", err)
	}
	wait(t, done)
}

// TestMuxDropsUnroutedAndStale: frames for instances not hosted count as
// unrouted; frames carrying a previous incarnation's epoch count as stale.
func TestMuxDropsUnroutedAndStale(t *testing.T) {
	g, hub := newTestGroup(t, context.Background(), 2, 4)
	old, _, done := echoJob(3, 2, 1, 1, time.Second)
	if err := g.Host(old); err != nil {
		t.Fatal(err)
	}
	wait(t, done)

	// A fresh incarnation under a new epoch, whose node-1 machine waits for
	// one frame more than its peers send.
	fresh, ms, done := echoJob(3, 2, 1, 1, 5*time.Second)
	ms[1].want = 3
	if err := g.Host(fresh); err != nil {
		t.Fatal(err)
	}
	raw := hub.Link(0)
	// A frame stamped with the old epoch: routed to the live instance but
	// dropped as stale.
	if err := raw.Send(transport.Message{To: 1, Instance: 3, Seq: old.epoch}); err != nil {
		t.Fatal(err)
	}
	// A frame for an instance nobody hosts: unrouted.
	if err := raw.Send(transport.Message{To: 1, Instance: 99}); err != nil {
		t.Fatal(err)
	}
	// A live frame behind them (the hub's inboxes are FIFO) ends the round.
	if err := raw.Send(transport.Message{To: 1, Instance: 3, Seq: fresh.epoch, Value: 5}); err != nil {
		t.Fatal(err)
	}
	wait(t, done)
	if ms[1].expired != 0 || len(ms[1].got) != 3 {
		t.Fatalf("node 1 got %d frames, %d expiries, want 3/0", len(ms[1].got), ms[1].expired)
	}
	st := g.Stats()
	if st.Stale != 1 || st.Unrouted != 1 {
		t.Errorf("stats = %+v, want Stale=1 Unrouted=1", st)
	}
}

// TestMuxCoalescing: under load one loop pass carries the sends of many
// instances, so the loops make fewer SendBatch calls than machines open
// rounds — the cross-instance batching contract.
func TestMuxCoalescing(t *testing.T) {
	const n, instances, rounds = 2, 50, 4
	g, _ := newTestGroup(t, context.Background(), n, 2*instances*rounds)
	dones := make([]chan struct{}, instances)
	for i := range dones {
		j, _, done := echoJob(uint32(i+1), n, rounds, float64(i), time.Second)
		if err := g.Host(j); err != nil {
			t.Fatal(err)
		}
		dones[i] = done
	}
	for _, done := range dones {
		wait(t, done)
	}
	st := g.Stats()
	begins := int64(n * instances * rounds)
	if st.Frames != begins*n {
		t.Fatalf("Frames = %d, want %d", st.Frames, begins*n)
	}
	if st.Flushes == 0 || st.Flushes >= begins {
		t.Fatalf("Flushes = %d, want fewer than the %d rounds opened", st.Flushes, begins)
	}
	t.Logf("coalescing: %d frames in %d flushes (%.1f frames/flush)",
		st.Frames, st.Flushes, float64(st.Frames)/float64(st.Flushes))
}

// TestGroupConcurrentInstances: many instances run concurrently over one
// mesh without crosstalk — every machine sees only its own instance's
// values, round by round — and nothing is dropped.
func TestGroupConcurrentInstances(t *testing.T) {
	const n, instances, rounds = 3, 20, 5
	g, hub := newTestGroup(t, context.Background(), n, 4*instances)
	type run struct {
		ms   []*echo
		done chan struct{}
	}
	runs := make([]run, instances)
	for i := range runs {
		j, ms, done := echoJob(uint32(i+1), n, rounds, float64(i+1), time.Second)
		if err := g.Host(j); err != nil {
			t.Fatal(err)
		}
		runs[i] = run{ms, done}
	}
	for id, r := range runs {
		wait(t, r.done)
		for node, m := range r.ms {
			if len(m.got) != n*rounds || m.expired != 0 {
				t.Fatalf("instance %d node %d: %d frames, %d expiries", id+1, node, len(m.got), m.expired)
			}
			for _, msg := range m.got {
				if msg.Value != float64(id+1) {
					t.Fatalf("instance %d saw value %v (crosstalk)", id+1, msg.Value)
				}
			}
			for r := range rounds {
				if m.seen[r] != n {
					t.Fatalf("instance %d node %d: round %d saw %d frames, want %d", id+1, node, r, m.seen[r], n)
				}
			}
		}
	}
	if st := g.Stats(); st.Unrouted != 0 || st.Stale != 0 {
		t.Errorf("drops under lockstep load: %+v", st)
	}
	for i := range n {
		if o := hub.Link(i).Counters().Overflow; o != 0 {
			t.Errorf("node %d's inbox overflowed %d times", i, o)
		}
	}
}

// TestMuxDeadlineAndHorizon: rounds nobody completes close at their
// deadline, one timer per loop serving every hosted machine, and an
// instance past its horizon is abandoned with its machines marked down.
func TestMuxDeadlineAndHorizon(t *testing.T) {
	const n = 2
	g, _ := newTestGroup(t, context.Background(), n, 8)
	slow, sms, sdone := echoJob(1, n, 3, 1, 20*time.Millisecond)
	stuck, kms, kdone := echoJob(2, n, 1000, 2, 20*time.Millisecond)
	stuck.Horizon = 150 * time.Millisecond
	for _, ms := range [][]*echo{sms, kms} {
		for _, m := range ms {
			m.want = n + 1 // never reached
		}
	}
	start := time.Now()
	for _, j := range []*Job{slow, stuck} {
		if err := g.Host(j); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, sdone)
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("three 20ms deadlines passed in %v", elapsed)
	}
	for node, m := range sms {
		if m.expired != 3 || !m.Done() || slow.Down[node] || slow.Errs[node] != nil {
			t.Errorf("node %d: %d expiries, done=%v down=%v err=%v", node, m.expired, m.Done(), slow.Down[node], slow.Errs[node])
		}
	}
	wait(t, kdone)
	for node, m := range kms {
		if !stuck.Down[node] || m.Done() || m.expired == 0 {
			t.Errorf("node %d past the horizon: down=%v done=%v expiries=%d", node, stuck.Down[node], m.Done(), m.expired)
		}
	}
}

// TestGroupContextAbort: ending the group's context fails every hosted
// machine, and every later one, with the context's error.
func TestGroupContextAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, _ := newTestGroup(t, ctx, 2, 8)
	live, ms, done := echoJob(1, 2, 1000, 1, time.Hour)
	for _, m := range ms {
		m.want = 3
	}
	if err := g.Host(live); err != nil {
		t.Fatal(err)
	}
	cancel()
	wait(t, done)
	later, _, ldone := echoJob(2, 2, 1, 1, time.Hour)
	if err := g.Host(later); err != nil {
		t.Fatal(err)
	}
	wait(t, ldone)
	for _, j := range []*Job{live, later} {
		for node, err := range j.Errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("instance %d node %d: err = %v, want context.Canceled", j.ID, node, err)
			}
		}
	}
}

// TestGroupHostValidation: a job must bring one machine per mesh node.
func TestGroupHostValidation(t *testing.T) {
	g, _ := newTestGroup(t, context.Background(), 3, 4)
	j, _, _ := echoJob(1, 2, 1, 1, time.Second)
	if err := g.Host(j); err == nil {
		t.Fatal("a 2-machine job was hosted on a 3-node mesh")
	}
}
