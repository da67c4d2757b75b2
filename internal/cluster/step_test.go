package cluster

import (
	"testing"
	"time"

	"mbfaa/internal/transport"
)

// TestStepCloseRules steps one node of a four-node cluster through round 0
// by hand — no link, goroutine or clock — and pins where the round closes:
// Deliver never closes it; at depth 0 only the full count (at the close
// check) or Expire does; at depth 2 a majority closes it, at the close check
// that follows the drain; under SyncRounds only Expire does. Every case then
// feeds the closed round's stragglers to pin what each drop counter means.
func TestStepCloseRules(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name      string
		depth     int
		sync      bool
		from      []int // round-0 senders delivered before the close check
		settles   bool  // the close check closes the round
		omissions int64
	}{
		{"depth0/full", 0, false, []int{0, 1, 2, 3}, true, 0},
		{"depth0/majority-waits", 0, false, []int{0, 1, 2}, false, 1},
		{"depth2/quorum", 2, false, []int{0, 1, 2}, true, 1},
		{"depth2/minority-waits", 2, false, []int{0, 1}, false, 2},
		{"depth2/full", 2, false, []int{0, 1, 2, 3}, true, 0},
		{"sync/depth0-full-waits", 0, true, []int{0, 1, 2, 3}, false, 0},
		{"sync/depth2-quorum-waits", 2, true, []int{0, 1, 2}, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipelineConfigs(n, 3, tc.depth, time.Second)[0]
			cfg.SyncRounds = tc.sync
			nd, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if nd.Settle() || nd.Expire(0) {
				t.Fatal("a round closed before Begin opened it")
			}
			if sends := nd.Begin(); len(sends) != n || nd.Begin() != nil {
				t.Fatalf("Begin returned %d sends and reopened an open round", len(sends))
			}
			for _, from := range tc.from {
				nd.Deliver(transport.Message{From: from, Round: 0, Value: float64(from)})
				if nd.Round() != 0 {
					t.Fatalf("Deliver from %d closed the round", from)
				}
			}
			if got := nd.Settle(); got != tc.settles {
				t.Fatalf("close check = %v, want %v", got, tc.settles)
			}
			if !tc.settles {
				if nd.Expire(1) {
					t.Fatal("a deadline for another round closed round 0")
				}
				if !nd.Expire(0) {
					t.Fatal("Expire(0) did not close round 0")
				}
			}
			if nd.Round() != 1 || nd.Expire(0) {
				t.Fatalf("round %d after the close, or a second Expire(0) closed again", nd.Round())
			}
			st := nd.Stats()
			if st.Omissions != tc.omissions || st.Received != int64(len(tc.from)) {
				t.Fatalf("omissions=%d received=%d, want %d/%d", st.Omissions, st.Received, tc.omissions, len(tc.from))
			}

			// Round 1 is open now. Round 0's stragglers: a recorded sender
			// is a duplicate, an unrecorded one a late original.
			missing := len(tc.from) // the first sender round 0 never recorded, if any
			nd.Deliver(transport.Message{From: 1, Round: 0})
			if missing < n {
				nd.Deliver(transport.Message{From: missing, Round: 0})
			}
			// Beyond the window ahead of round 1, and outside [0, n).
			nd.Deliver(transport.Message{From: 1, Round: 1 + nd.ahead + 1})
			nd.Deliver(transport.Message{From: n, Round: 1})
			st = nd.Stats()
			wantLate := int64(0)
			if missing < n {
				wantLate = 1
			}
			if st.Duplicates != 1 || st.Late != wantLate || st.StaleRounds != 1 || st.Rejected != 1 {
				t.Fatalf("duplicates=%d late=%d stale=%d rejected=%d, want 1/%d/1/1",
					st.Duplicates, st.Late, st.StaleRounds, st.Rejected, wantLate)
			}
			if st.Received != int64(len(tc.from)) {
				t.Fatalf("a dropped frame was recorded: received=%d", st.Received)
			}
		})
	}
}

// TestStepRunToDecision steps a whole four-node lockstep cluster by hand,
// routing every Begin's sends straight into the receivers' Deliver: each
// round closes at its full count, every node decides after the horizon, and
// later frames are ignored.
func TestStepRunToDecision(t *testing.T) {
	const n, rounds = 4, 3
	cfgs := pipelineConfigs(n, rounds, 0, time.Second)
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := NewNode(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	for r := 0; r < rounds; r++ {
		for from, nd := range nodes {
			for _, m := range nd.Begin() {
				m.From = from
				nodes[m.To].Deliver(m)
			}
		}
		for id, nd := range nodes {
			if !nd.Settle() {
				t.Fatalf("node %d: round %d did not close at its full count", id, r)
			}
		}
	}
	for id, nd := range nodes {
		v, err := nd.Result()
		if !nd.Done() || err != nil || nd.Begin() != nil {
			t.Fatalf("node %d: done=%v err=%v after the horizon", id, nd.Done(), err)
		}
		if v < 0 || v > n-1 {
			t.Errorf("node %d decided %g outside the inputs' range", id, v)
		}
		nd.Deliver(transport.Message{From: 1, Round: rounds})
		if st := nd.Stats(); st.Received != n*rounds || st.Omissions != 0 || st.StaleRounds != 0 {
			t.Errorf("node %d stats %+v, want %d received and no drops", id, st, n*rounds)
		}
	}
}
