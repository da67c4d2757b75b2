package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// withinDeadline fails the test if fn does not return within d — the
// shutdown paths under test must never hang.
func withinDeadline(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
		return nil
	}
}

// TestTCPCloseWithInflightBatch closes a node right after handing the
// writer goroutines a large batched backlog: Close must flush or abandon
// the in-flight writes within the close grace and return, never hang.
func TestTCPCloseWithInflightBatch(t *testing.T) {
	nodes, err := NewTCPMesh(2, []byte("shutdown-key"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodes[1].Close() }()

	batch := make([]Message, 0, 256)
	for r := 0; r < 128; r++ {
		batch = append(batch, Message{Round: r, To: 1, Value: float64(r)})
	}
	if err := nodes[0].SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Close races the writer's first flush; both orders must terminate.
	if err := withinDeadline(t, peerCloseGrace+3*time.Second, "Close with in-flight batch", nodes[0].Close); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := nodes[0].SendBatch(batch[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after Close = %v, want ErrClosed", err)
	}
}

// TestTCPBatchDialFailure points a node's batch pipeline at a dead address:
// the writer retries under its policy, and once the budget is exhausted the
// peer degrades to the down state — later batches to it become counted
// drops (PeerDownDrops), never errors, so a dead peer reads as omissions.
func TestTCPBatchDialFailure(t *testing.T) {
	self, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A listener opened and immediately closed yields an address that
	// refuses connections outright — the dial fails fast, without waiting
	// out peerDialTimeout.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	nd, err := NewTCPNode(0, 2, self, []string{self.Addr().String(), deadAddr}, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nd.Close() }()
	// A tiny budget so the outage exhausts within the test deadline.
	nd.SetRetryPolicy(RetryPolicy{Base: time.Millisecond, Max: 4 * time.Millisecond, Budget: 50 * time.Millisecond})

	// Batches to the dead peer must keep succeeding — first retained by the
	// redialing writer, then absorbed as counted drops once it goes down.
	deadline := time.Now().Add(10 * time.Second)
	for r := 0; ; r++ {
		err := withinDeadline(t, 5*time.Second, "SendBatch to dead peer", func() error {
			return nd.SendBatch([]Message{{Round: r, To: 1}})
		})
		if err != nil {
			t.Fatalf("SendBatch to dead peer errored (%v); want graceful degradation", err)
		}
		if nd.Counters().PeerDownDrops > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry budget exhaustion never degraded the peer to counted drops")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := nd.PeerState(1); got != PeerDown {
		t.Fatalf("PeerState(1) = %v, want down", got)
	}
	if got := nd.Counters().PeerDownEvents; got != 1 {
		t.Fatalf("PeerDownEvents = %d, want 1", got)
	}
	if got := nd.Counters().DialRetries; got == 0 {
		t.Fatal("DialRetries = 0; the outage never counted its failed dials")
	}

	// Synchronous Send dials inline and fails immediately.
	if err := nd.Send(Message{Round: 0, To: 1}); err == nil || !strings.Contains(err.Error(), "dial node 1") {
		t.Fatalf("Send to dead peer = %v, want a dial error", err)
	}
}

// TestTCPSendAfterClose pins the closed-node surface: Send and SendBatch
// after Close return ErrClosed, and a second Close is a no-op — all without
// hanging.
func TestTCPSendAfterClose(t *testing.T) {
	nodes, err := NewTCPMesh(2, []byte("shutdown-key"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nodes[1].Close() }()
	if err := withinDeadline(t, 5*time.Second, "Close", nodes[0].Close); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Send(Message{To: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := nodes[0].SendBatch([]Message{{To: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendBatch after Close = %v, want ErrClosed", err)
	}
	if err := withinDeadline(t, 5*time.Second, "second Close", nodes[0].Close); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	// The inbox must be closed so receivers unblock.
	select {
	case _, ok := <-nodes[0].Recv():
		if ok {
			t.Fatal("Recv yielded a message after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv channel not closed after Close")
	}
}

// TestTCPCloseWhilePeerStopsReading closes a node whose peer has already
// gone away mid-run: pending batched writes to the vanished peer must not
// block Close past its grace period.
func TestTCPCloseWhilePeerStopsReading(t *testing.T) {
	nodes, err := NewTCPMesh(2, []byte("shutdown-key"))
	if err != nil {
		t.Fatal(err)
	}
	// Establish the pipeline, then kill the peer.
	if err := nodes[0].SendBatch([]Message{{Round: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Queue more traffic at the dead peer; the write may or may not fail
	// depending on TCP buffering — either way Close stays bounded.
	for r := 1; r < 64; r++ {
		if err := nodes[0].SendBatch([]Message{{Round: r, To: 1}}); err != nil {
			break // pipeline already reported the broken peer
		}
	}
	if err := withinDeadline(t, peerCloseGrace+3*time.Second, "Close with dead peer", nodes[0].Close); err != nil {
		t.Fatalf("close: %v", err)
	}
}
