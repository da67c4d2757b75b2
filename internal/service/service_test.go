package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mbfaa/internal/transport"
)

// newTestGroup builds a Group over an in-memory hub sized for the test.
func newTestGroup(t *testing.T, n, rounds int) (*Group, *transport.Channel) {
	t.Helper()
	hub, err := transport.NewChannel(n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = hub.Link(i)
	}
	g := NewGroup(links)
	t.Cleanup(func() {
		_ = g.Close()
		_ = hub.Close()
		g.Join()
	})
	return g, hub
}

// recvOne waits for one message on an instance link.
func recvOne(t *testing.T, l transport.Link) transport.Message {
	t.Helper()
	select {
	case m := <-l.Recv():
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("no message delivered")
		panic("unreachable")
	}
}

// TestGroupRoutesByInstance: frames reach exactly the instance they name,
// with the instance id stamped on the wire.
func TestGroupRoutesByInstance(t *testing.T) {
	g, _ := newTestGroup(t, 2, 4)
	a, err := g.Register(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Register(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a[0].Send(transport.Message{To: 1, Round: 0, Value: 10}); err != nil {
		t.Fatal(err)
	}
	if err := b[0].Send(transport.Message{To: 1, Round: 0, Value: 20}); err != nil {
		t.Fatal(err)
	}
	ma := recvOne(t, a[1])
	if ma.Value != 10 || ma.Instance != 1 || ma.From != 0 {
		t.Errorf("instance 1 received %+v", ma)
	}
	mb := recvOne(t, b[1])
	if mb.Value != 20 || mb.Instance != 2 {
		t.Errorf("instance 2 received %+v", mb)
	}
}

// TestGroupDuplicateRegistration: a live instance id cannot be registered
// twice; after retirement it can.
func TestGroupDuplicateRegistration(t *testing.T) {
	g, _ := newTestGroup(t, 2, 4)
	links, err := g.Register(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Register(7, 8); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	for _, l := range links {
		_ = l.Close()
	}
	if _, err := g.Register(7, 8); err != nil {
		t.Fatalf("re-registration after retirement failed: %v", err)
	}
}

// TestMuxDropsUnroutedAndStale: frames for retired instances count as
// unrouted; frames carrying a previous incarnation's epoch count as stale.
func TestMuxDropsUnroutedAndStale(t *testing.T) {
	g, hub := newTestGroup(t, 2, 4)
	links, err := g.Register(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	oldEpoch := links[0].(*InstanceLink).epoch

	// Retire and re-register under a fresh epoch.
	for _, l := range links {
		_ = l.Close()
	}
	fresh, err := g.Register(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A frame stamped with the old epoch: routed to the live instance but
	// dropped as stale.
	if err := hub.Link(0).Send(transport.Message{To: 1, Instance: 3, Seq: oldEpoch}); err != nil {
		t.Fatal(err)
	}
	// A frame for an instance nobody registered: unrouted.
	if err := hub.Link(0).Send(transport.Message{To: 1, Instance: 99}); err != nil {
		t.Fatal(err)
	}
	// A live frame behind them proves the drops happened (FIFO demux).
	if err := fresh[0].Send(transport.Message{To: 1, Round: 0, Value: 5}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, fresh[1]); m.Value != 5 {
		t.Errorf("live frame = %+v", m)
	}
	st := g.Mux(1).Stats()
	if st.Stale != 1 || st.Unrouted != 1 {
		t.Errorf("stats = %+v, want Stale=1 Unrouted=1", st)
	}
}

// TestMuxInboxOverflow: a full instance inbox drops (never blocks the
// demux), counts per route, and surfaces through Counters().Overflow.
func TestMuxInboxOverflow(t *testing.T) {
	g, _ := newTestGroup(t, 2, 64)
	links, err := g.Register(1, 2) // inbox depth 2
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := links[0].Send(transport.Message{To: 1, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	il := links[1].(*InstanceLink)
	deadline := time.Now().Add(2 * time.Second)
	for il.Counters().Overflow < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := il.Counters().Overflow; got != 3 {
		t.Errorf("Counters().Overflow = %d, want 3", got)
	}
	if st := g.Mux(1).Stats(); st.Overflows != 3 {
		t.Errorf("mux Overflows = %d, want 3", st.Overflows)
	}
}

// TestMuxCoalescing: many instances' batches merge into fewer underlying
// flushes than enqueues — the cross-instance batching contract.
func TestMuxCoalescing(t *testing.T) {
	const n, instances, rounds = 2, 50, 4
	g, _ := newTestGroup(t, n, 2*instances*rounds)
	all := make([][]transport.Link, instances)
	for i := range all {
		links, err := g.Register(uint32(i+1), 4*n+4)
		if err != nil {
			t.Fatal(err)
		}
		all[i] = links
	}
	var wg sync.WaitGroup
	for i := range all {
		wg.Add(1)
		go func(links []transport.Link) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := []transport.Message{{To: 0, Round: r}, {To: 1, Round: r}}
				if err := links[0].(transport.BatchSender).SendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(all[i])
	}
	wg.Wait()
	// Drain every instance inbox on both nodes so all flushes happened.
	for i := range all {
		for node := 0; node < n; node++ {
			for r := 0; r < rounds; r++ {
				recvOne(t, all[i][node])
			}
		}
	}
	st := g.Mux(0).Stats()
	wantFrames := int64(instances * rounds * n)
	if st.Frames != wantFrames {
		t.Fatalf("Frames = %d, want %d", st.Frames, wantFrames)
	}
	if st.Flushes == 0 || st.Flushes > wantFrames {
		t.Fatalf("Flushes = %d outside (0, %d]", st.Flushes, wantFrames)
	}
	t.Logf("coalescing: %d frames in %d flushes (%.1f frames/flush)",
		st.Frames, st.Flushes, st.FramesPerFlush())
}

// TestGroupConcurrentInstances: many instances ping-pong concurrently over
// one mesh without crosstalk — every instance sees only its own values.
func TestGroupConcurrentInstances(t *testing.T) {
	const n, instances, rounds = 3, 20, 5
	g, _ := newTestGroup(t, n, 4*instances)
	var wg sync.WaitGroup
	errs := make(chan error, instances)
	for inst := 1; inst <= instances; inst++ {
		links, err := g.Register(uint32(inst), 4*n+4)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id uint32, links []transport.Link) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Every node broadcasts its marker value, then receives n.
				for node := 0; node < n; node++ {
					var batch []transport.Message
					for to := 0; to < n; to++ {
						batch = append(batch, transport.Message{To: to, Round: r, Value: float64(id)})
					}
					if err := links[node].(transport.BatchSender).SendBatch(batch); err != nil {
						errs <- err
						return
					}
				}
				for node := 0; node < n; node++ {
					for k := 0; k < n; k++ {
						m := <-links[node].Recv()
						if m.Value != float64(id) {
							errs <- fmt.Errorf("instance %d saw value %v (crosstalk)", id, m.Value)
							return
						}
						if m.Round != r {
							errs <- fmt.Errorf("instance %d round %d saw round %d", id, r, m.Round)
							return
						}
					}
				}
			}
		}(uint32(inst), links)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Unrouted != 0 || st.Stale != 0 || st.Overflows != 0 {
		t.Errorf("drops under lockstep load: %+v", st)
	}
}
