package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/transport"
)

// chaosConfigs builds an honest n-node deployment with spread inputs.
func chaosConfigs(n, rounds int, timeout time.Duration) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			ID:           i,
			N:            n,
			F:            0,
			Model:        mobile.M4Buhrman,
			Algorithm:    msr.FTM{},
			Input:        float64(i),
			InputRange:   float64(n),
			Epsilon:      1e-9,
			RoundTimeout: timeout,
			Schedule:     NoFaults{},
			FixedRounds:  rounds,
		}
	}
	return cfgs
}

// chaosLinks wraps each node's view of a fresh memory hub for n nodes in
// one Chaos layer.
func chaosLinks(t *testing.T, n int, spec transport.ChaosSpec) ([]transport.Link, *transport.Chaos) {
	t.Helper()
	hub, err := transport.NewChannel(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := transport.NewChaos(n, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = chaos.Close()
		_ = hub.Close()
	})
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = chaos.WrapLink(hub.Link(i), i)
	}
	return links, chaos
}

// TestReplayWindow pins the node-side replay window semantics: recorded
// rounds and below-window rounds read as duplicates, everything else as
// unrecorded, across window slides. The window is the shared
// transport.RoundWindow, held per sender.
func TestReplayWindow(t *testing.T) {
	nd := &Node{win: make([]transport.RoundWindow, 2)}
	if nd.win[0].Recorded(0) {
		t.Fatal("empty window claims round 0 recorded")
	}
	nd.win[0].Record(0)
	nd.win[0].Record(5)
	if !nd.win[0].Recorded(0) || !nd.win[0].Recorded(5) {
		t.Fatal("recorded rounds not found")
	}
	if nd.win[0].Recorded(3) || nd.win[0].Recorded(63) {
		t.Fatal("unrecorded in-window rounds claimed recorded")
	}
	// Slide the window far forward: old rounds fall below the base and read
	// as recorded (replays), the explicitly recorded round stays visible.
	nd.win[0].Record(200)
	if !nd.win[0].Recorded(200) {
		t.Fatal("round 200 not recorded after slide")
	}
	if !nd.win[0].Recorded(0) || !nd.win[0].Recorded(100) {
		t.Fatal("below-window rounds must read as recorded (replay convention)")
	}
	if nd.win[0].Recorded(199) {
		t.Fatal("unrecorded in-window round claimed recorded after slide")
	}
	// A modest slide keeps recent history.
	nd.win[0].Record(250)
	if !nd.win[0].Recorded(200) {
		t.Fatal("round 200 lost by a 50-round slide")
	}
	// Senders are independent.
	if nd.win[1].Recorded(200) {
		t.Fatal("sender 1 inherited sender 0's window")
	}
}

// TestClusterCrashRecoverRejoins runs a node through a chaos crash window
// and checks it rejoins and agrees exactly after the heal, with the crash
// losses attributed to the Partitioned counter.
func TestClusterCrashRecoverRejoins(t *testing.T) {
	const n, rounds = 4, 6
	links, _ := chaosLinks(t, n, transport.ChaosSpec{
		Seed:    7,
		Crashes: []transport.CrashWindow{{Node: 0, Start: 1, End: 3}},
	})
	outcomes, down, err := RunClusterDeadline(context.Background(), chaosConfigs(n, rounds, 300*time.Millisecond), links, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 0 {
		t.Fatalf("down = %v, want none: a recovered node must rejoin, not wedge", down)
	}
	lo, hi := outcomes[0].Value, outcomes[0].Value
	for _, o := range outcomes {
		lo, hi = math.Min(lo, o.Value), math.Max(hi, o.Value)
	}
	if hi-lo > 1e-12 {
		t.Fatalf("post-heal decisions disagree: spread %g (outcomes %v)", hi-lo, outcomes)
	}
	// Rounds 1 and 2 crash-drop every frame addressed to node 0 (n senders)
	// and node 0's own frame to each peer.
	if got := outcomes[0].Stats.Partitioned; got != 2*n {
		t.Fatalf("crashed node Partitioned = %d, want %d", got, 2*n)
	}
	for id := 1; id < n; id++ {
		if got := outcomes[id].Stats.Partitioned; got != 2 {
			t.Fatalf("node %d Partitioned = %d, want 2", id, got)
		}
	}
}

// TestClusterDuplicatesCounted runs with 100% duplication and checks the
// node-side replay window counts the copies instead of double-recording.
func TestClusterDuplicatesCounted(t *testing.T) {
	const n, rounds = 4, 4
	links, _ := chaosLinks(t, n, transport.ChaosSpec{Seed: 3, DupRate: 1})
	outcomes, down, err := RunClusterDeadline(context.Background(), chaosConfigs(n, rounds, 300*time.Millisecond), links, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 0 {
		t.Fatalf("down = %v, want none", down)
	}
	for id, o := range outcomes {
		if o.Stats.Duplicates == 0 {
			t.Fatalf("node %d saw no duplicates under DupRate=1 (stats %+v)", id, o.Stats)
		}
		if o.Stats.Received != int64(n*rounds) {
			t.Fatalf("node %d recorded %d frames, want %d: duplicates must not double-record", id, o.Stats.Received, n*rounds)
		}
	}
}

// wedgedLink blocks forever in Send: the pathological transport a watchdog
// exists for. Recv never delivers either.
type wedgedLink struct {
	recv  chan transport.Message
	block chan struct{}
}

func (w *wedgedLink) Send(transport.Message) error   { <-w.block; return transport.ErrClosed }
func (w *wedgedLink) Recv() <-chan transport.Message { return w.recv }
func (w *wedgedLink) Close() error                   { return nil }
func (w *wedgedLink) Counters() transport.Counters   { return transport.Counters{} }

// TestRunClusterDeadlineWedgedNode pins the NodeDown path: a node wedged in
// a non-cancellable Send is reported down after horizon + grace while the
// healthy nodes' outcomes survive.
func TestRunClusterDeadlineWedgedNode(t *testing.T) {
	oldGrace := downGrace
	downGrace = 100 * time.Millisecond
	defer func() { downGrace = oldGrace }()

	const n = 3
	hub, err := transport.NewChannel(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	wedged := &wedgedLink{recv: make(chan transport.Message), block: make(chan struct{})}
	defer close(wedged.block) // release the leaked goroutine at test end
	links := []transport.Link{wedged, hub.Link(1), hub.Link(2)}

	outcomes, down, err := RunClusterDeadline(context.Background(), chaosConfigs(n, 2, 50*time.Millisecond), links, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 1 || down[0] != 0 {
		t.Fatalf("down = %v, want [0]", down)
	}
	for id := 1; id < n; id++ {
		if outcomes[id].Stats.Sent == 0 {
			t.Fatalf("healthy node %d has no outcome: %+v", id, outcomes[id])
		}
	}
}

// TestRunClusterDeadlineCancelledClassifiedDown pins the reclassification:
// nodes that only stopped because the watchdog cancelled them are down, not
// errors.
func TestRunClusterDeadlineCancelledClassifiedDown(t *testing.T) {
	const n = 3
	hub, err := transport.NewChannel(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	// Node 0's sends vanish, so every round costs the full timeout on all
	// nodes and the 50-round run cannot finish inside the horizon.
	chaos, err := transport.NewChaos(n, transport.ChaosSpec{
		Seed:    1,
		Crashes: []transport.CrashWindow{{Node: 0, Start: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = chaos.Close() }()
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = chaos.WrapLink(hub.Link(i), i)
	}
	_, down, err := RunClusterDeadline(context.Background(), chaosConfigs(n, 50, 60*time.Millisecond), links, 300*time.Millisecond)
	if err != nil {
		t.Fatalf("watchdog cancellation must not surface as an error, got %v", err)
	}
	if len(down) != n {
		t.Fatalf("down = %v, want all %d nodes (none decided inside the horizon)", down, n)
	}
}
