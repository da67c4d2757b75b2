package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"mbfaa/internal/transport"
)

// pipelineConfigs is chaosConfigs with a pipeline depth applied.
func pipelineConfigs(n, rounds, depth int, timeout time.Duration) []Config {
	cfgs := chaosConfigs(n, rounds, timeout)
	for i := range cfgs {
		cfgs[i].PipelineDepth = depth
	}
	return cfgs
}

// TestPipelineDepthValidate pins the config bounds: negative depths and
// depths past MaxPipelineDepth are rejected, the extremes are accepted.
func TestPipelineDepthValidate(t *testing.T) {
	for _, tc := range []struct {
		depth int
		ok    bool
	}{{-1, false}, {0, true}, {2, true}, {MaxPipelineDepth, true}, {MaxPipelineDepth + 1, false}} {
		cfg := chaosConfigs(4, 3, time.Second)[0]
		cfg.PipelineDepth = tc.depth
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("depth %d rejected: %v", tc.depth, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("depth %d accepted, want error", tc.depth)
		}
	}
}

// TestPipelineAdmitWindow steps one node through admission against the
// round window [current, current+ahead] at depth 0 (the whole ring ahead)
// and depth 2, with no hub traffic and no clock:
// in-window frames land in their ring slot and count when their round
// opens, duplicates and replays are told apart from late originals and
// beyond-window drops, ring slots recycle clean, and Reset clears all
// receive and pipelined state.
func TestPipelineAdmitWindow(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		depth, ahead int
	}{{0, MaxPipelineDepth}, {2, 2}} {
		cfg := pipelineConfigs(n, 6, tc.depth, time.Second)[0]
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := tc.ahead
		nd.Begin()

		// In-window frames record into their own slot — at depth 0 the
		// frames for rounds 1 and 2 arrive while round 0 is open — and a
		// second copy is a duplicate.
		nd.Deliver(transport.Message{From: 1, Round: 0, Value: 1})
		nd.Deliver(transport.Message{From: 1, Round: 0, Value: 1})
		nd.Deliver(transport.Message{From: 1, Round: 1, Value: 2})
		nd.Deliver(transport.Message{From: 1, Round: 2, Value: 3})
		nd.Deliver(transport.Message{From: 3, Round: k, Value: 1}) // window edge
		if nd.stats.Received != 4 || nd.stats.Duplicates != 1 {
			t.Fatalf("depth %d: received=%d duplicates=%d, want 4/1", tc.depth, nd.stats.Received, nd.stats.Duplicates)
		}
		for r := 0; r <= 2; r++ {
			if st := nd.slot(r); !st.seen[1] || st.vals[1] != float64(r+1) {
				t.Fatalf("depth %d: slot %d seen[1]=%v val=%g, want true/%d", tc.depth, r, st.seen[1], st.vals[1], r+1)
			}
		}
		if c0, c1 := nd.slot(0).count, nd.slot(1).count; c0 != 1 || c1 != 1 {
			t.Fatalf("depth %d: slot counts %d/%d for rounds 0/1, want 1/1", tc.depth, c0, c1)
		}

		// Beyond the window: dropped and counted stale; at depth k > 0
		// still liveness evidence (lastSeen advances).
		nd.Deliver(transport.Message{From: 1, Round: k + 1, Value: 1})
		if nd.stats.StaleRounds != 1 {
			t.Fatalf("depth %d: staleRounds=%d, want 1", tc.depth, nd.stats.StaleRounds)
		}
		if tc.depth > 0 && nd.lastSeen[1] != k+1 {
			t.Fatalf("depth %d: lastSeen[1]=%d, want %d", tc.depth, nd.lastSeen[1], k+1)
		}

		// Below the window: once round 0 has closed at its deadline, a
		// recorded (sender, round) replays as a duplicate, an unrecorded
		// one is a late original.
		if !nd.Expire(0) || nd.Round() != 1 {
			t.Fatalf("depth %d: Expire(0) did not move the node to round 1 (round %d)", tc.depth, nd.Round())
		}
		nd.Deliver(transport.Message{From: 1, Round: 0, Value: 1}) // recorded above
		nd.Deliver(transport.Message{From: 2, Round: 0, Value: 1}) // never recorded
		if nd.stats.Duplicates != 2 || nd.stats.Late != 1 || nd.stats.StaleRounds != 1 {
			t.Fatalf("depth %d: duplicates=%d late=%d staleRounds=%d, want 2/1/1",
				tc.depth, nd.stats.Duplicates, nd.stats.Late, nd.stats.StaleRounds)
		}

		// Senders outside [0, n) are rejected outright.
		nd.Deliver(transport.Message{From: -1, Round: 0})
		nd.Deliver(transport.Message{From: n, Round: 0})
		if nd.stats.Rejected != 2 {
			t.Fatalf("depth %d: rejected=%d, want 2", tc.depth, nd.stats.Rejected)
		}

		// Ring slots recycle in place: the round one ring length past 0
		// maps onto round 0's slot and must come up empty.
		r := len(nd.ring)
		if st := nd.slot(r); st.round != r || st.count != 0 || st.seen[1] {
			t.Fatalf("depth %d: recycled slot: round=%d count=%d seen[1]=%v, want %d/0/false", tc.depth, st.round, st.count, st.seen[1], r)
		}

		// Reset clears every piece of receive and pipelined state for
		// pool reuse.
		if tc.depth > 0 {
			nd.misses[1] = 7
			nd.stalled[1] = true
		}
		nd.Reset(1, 1, 6)
		for s := 0; s < n; s++ {
			if tc.depth > 0 && (nd.lastSeen[s] != -1 || nd.stalled[s] || nd.misses[s] != 0) {
				t.Fatalf("depth %d: Reset left sender %d dirty: lastSeen=%d stalled=%v misses=%d", tc.depth, s, nd.lastSeen[s], nd.stalled[s], nd.misses[s])
			}
		}
		for i := range nd.ring {
			if nd.ring[i] != nil {
				t.Fatalf("depth %d: Reset left ring slot %d holding round %d", tc.depth, i, nd.ring[i].round)
			}
		}
		if st := nd.slot(1); st.count != 0 || st.seen[1] {
			t.Fatalf("depth %d: slot 1 after Reset: count=%d seen[1]=%v, want 0/false", tc.depth, st.count, st.seen[1])
		}
	}
}

// TestPipelineCleanRun: on clean in-memory links with no faults the
// pipelined cluster completes at every depth, decides inside the input
// range (validity), and still shrinks the decision spread — the quorum
// close may legitimately rule a momentarily-slower peer's frame an
// omission, so depth > 0 is not held to lockstep's exact values, only to
// the protocol's guarantees.
func TestPipelineCleanRun(t *testing.T) {
	const n, rounds = 4, 6
	for _, depth := range []int{0, 2, 8} {
		hub, err := transport.NewChannel(n, 8+2*depth)
		if err != nil {
			t.Fatal(err)
		}
		links := make([]transport.Link, n)
		for i := range links {
			links[i] = hub.Link(i)
		}
		outcomes, down, err := RunClusterDeadline(context.Background(), pipelineConfigs(n, rounds, depth, 300*time.Millisecond), links, 30*time.Second)
		_ = hub.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(down) != 0 {
			t.Fatalf("depth %d: down = %v, want none", depth, down)
		}
		lo, hi := outcomes[0].Value, outcomes[0].Value
		for i, o := range outcomes {
			lo, hi = math.Min(lo, o.Value), math.Max(hi, o.Value)
			if o.Value < 0 || o.Value > float64(n-1) {
				t.Errorf("depth %d node %d decided %g outside the input range [0,%d]", depth, i, o.Value, n-1)
			}
			if depth == 0 && (o.Stats.StaleRounds != 0 || o.Stats.StallEvents != 0 || o.Stats.PeerMisses != nil) {
				t.Errorf("depth 0 node %d carries pipelined counters: %+v", i, o.Stats)
			}
		}
		// Six averaging rounds shrink the n-1 initial spread far below 1
		// even when quorum closes drop the odd frame.
		if hi-lo >= 1 {
			t.Errorf("depth %d: decision spread %g did not contract (initial %d)", depth, hi-lo, n-1)
		}
	}
}

// TestPipelineWedgedPeerStall wedges one peer completely: the node must
// stall-flag it (one transition), score every missed round against it, and
// keep closing rounds early instead of burning a deadline per round — one
// wedged peer must not wedge the cluster. Only node 0 is real; the test
// plays peer 1 (prompt) and peer 2 (silent) over the hub's raw links.
func TestPipelineWedgedPeerStall(t *testing.T) {
	const n, k, rounds = 3, 2, 4
	const timeout = 100 * time.Millisecond
	hub, err := transport.NewChannel(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	cfg := pipelineConfigs(n, rounds, k, timeout)[0]

	// Peer 1 echoes a frame back, stamped with the instance and epoch it
	// came with, for every round it sees node 0 send; peer 2 stays wedged.
	// With k=2 the node closes round 0 early (peer 2 still has pipeline
	// credit), burns exactly one deadline on round 1 (the brake blocks on
	// peer 2's silence), stall-flags peer 2 after that close, and closes
	// every later round early against peer 1 alone.
	peer1 := hub.Link(1)
	go func() {
		for m := range peer1.Recv() {
			if m.From != 0 {
				continue
			}
			_ = peer1.Send(transport.Message{Round: m.Round, To: 0, Value: float64(m.Round), Instance: m.Instance, Seq: m.Seq})
		}
	}()

	type result struct {
		o   []Outcome
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		// Only node 0 is hosted: one dispatch loop over its link.
		o, _, err := RunClusterDeadline(context.Background(), []Config{cfg}, []transport.Link{hub.Link(0)}, 0)
		done <- result{o, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(time.Duration(rounds) * timeout):
		t.Fatal("cluster wedged: run did not finish inside the per-round deadline budget")
	}
	elapsed := time.Since(start)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if math.IsNaN(res.o[0].Value) {
		t.Fatal("wedged-peer run decided NaN")
	}
	// Exactly one round waits out its deadline; the rest close early. Allow
	// generous scheduling slack but stay far under rounds×timeout.
	if elapsed >= time.Duration(rounds)*timeout {
		t.Fatalf("run took %v — every round burned its deadline; early close never fired", elapsed)
	}

	st := res.o[0].Stats
	if st.StallEvents != 1 {
		t.Errorf("StallEvents = %d, want 1 (peer 2 stalls once and never recovers)", st.StallEvents)
	}
	if len(st.PeerMisses) != n || st.PeerMisses[2] != rounds || st.PeerMisses[1] != 0 {
		t.Errorf("PeerMisses = %v, want [0 0 %d]", st.PeerMisses, rounds)
	}
	if st.Omissions != rounds {
		t.Errorf("Omissions = %d, want %d (one per round from the wedged peer)", st.Omissions, rounds)
	}
	if st.Received != 2*rounds {
		t.Errorf("Received = %d, want %d (self + peer 1 per round)", st.Received, 2*rounds)
	}
}

// TestSyncRoundsStallIgnoresNextRoundFrames: under SyncRounds the stall
// classification at the close of round r counts only frames of rounds ≤ r.
// Node 0 runs two rounds at depth 1, stepped by hand; the test plays peer 1
// (prompt) and peer 2, whose round-0 frame is lost and whose round-1 frame
// arrives either early (delivered before round 0's deadline) or late (only
// once node 0 has moved on to round 1). Which of the two happens is a
// scheduling race in a real deployment, so both must give the same
// counters: peer 2 is stall-flagged at round 0's close and recovers at
// round 1's.
func TestSyncRoundsStallIgnoresNextRoundFrames(t *testing.T) {
	const n, k, rounds = 3, 1, 2
	run := func(early bool) NodeStats {
		cfg := pipelineConfigs(n, rounds, k, 150*time.Millisecond)[0]
		cfg.SyncRounds = true
		nd, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			nd.Deliver(transport.Message{From: 1, Round: r, To: 0, Value: 1})
		}
		if early {
			nd.Deliver(transport.Message{From: 2, Round: 1, To: 0, Value: 2})
		}
		for r := 0; r < rounds; r++ {
			deliverSelf(nd, 0, nd.Begin())
			if r == 1 && !early {
				nd.Deliver(transport.Message{From: 2, Round: 1, To: 0, Value: 2})
			}
			if nd.Settle() {
				t.Fatalf("round %d closed before its deadline under SyncRounds", r)
			}
			if !nd.Expire(r) {
				t.Fatalf("round %d did not close at its deadline", r)
			}
		}
		if !nd.Done() {
			t.Fatal("node not done after its last round")
		}
		if _, err := nd.Result(); err != nil {
			t.Fatal(err)
		}
		return nd.Stats()
	}
	early, late := run(true), run(false)
	if !reflect.DeepEqual(early, late) {
		t.Fatalf("counters depend on when peer 2's round-1 frame arrived:\nearly %+v\nlate  %+v", early, late)
	}
	if early.StallEvents != 1 {
		t.Errorf("StallEvents = %d, want 1 (peer 2 shows no frame of round ≤ 0 when round 0 closes)", early.StallEvents)
	}
	if early.Omissions != 1 || early.Received != 3*rounds-1 {
		t.Errorf("Omissions = %d, Received = %d, want 1 and %d", early.Omissions, early.Received, 3*rounds-1)
	}
}

// deliverSelf hands node id the frame its own sends address to itself, as a
// link's self delivery would.
func deliverSelf(nd *Node, id int, sends []transport.Message) {
	for _, m := range sends {
		if m.To == id {
			m.From = id
			nd.Deliver(m)
		}
	}
}
