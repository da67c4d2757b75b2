package mbfaa_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mbfaa"
)

// chaosDeploySpec is the shared base for the replay tests: drops,
// duplication, corruption and sub-deadline latency over the in-memory
// transport. Reordering is deliberately off — it is the one fault whose
// *attribution* (Received vs Late) races the round deadline even on the
// synchronous round clock, so this mix is the one that replays per-node
// stats bit-for-bit (see ChaosSpec.ReorderRate).
func chaosDeploySpec(seed uint64) mbfaa.ClusterSpec {
	return mbfaa.ClusterSpec{
		Model:        mbfaa.M4,
		N:            8,
		Inputs:       deployInputs(23, 8, 0, 1),
		Epsilon:      1e-3,
		InputRange:   1,
		FixedRounds:  12,
		RoundTimeout: 150 * time.Millisecond,
		Chaos: &mbfaa.ChaosSpec{
			Seed:        seed,
			DropRate:    0.05,
			DupRate:     0.05,
			CorruptRate: 0.02,
			LatencyMax:  20 * time.Millisecond,
		},
	}
}

// runChaosDeploy deploys and runs one chaos deployment, returning the
// result and the injected-fault trace.
func runChaosDeploy(t *testing.T, spec mbfaa.ClusterSpec) (*mbfaa.ClusterResult, []mbfaa.FaultEvent) {
	t.Helper()
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	res, err := dep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, dep.FaultTrace()
}

// replayDiffs lists every field in which two same-seed chaos runs differ:
// votes, decided sets, verdicts, chaos totals, and each per-node stats
// field by name ("Stats[2].StallEvents: 1 vs 0"), so a replay failure
// names the counter that raced.
func replayDiffs(a, b *mbfaa.ClusterResult) []string {
	var diffs []string
	if !reflect.DeepEqual(a.Votes, b.Votes) {
		diffs = append(diffs, fmt.Sprintf("Votes: %v vs %v", a.Votes, b.Votes))
	}
	if !reflect.DeepEqual(a.Decided, b.Decided) {
		diffs = append(diffs, fmt.Sprintf("Decided: %v vs %v", a.Decided, b.Decided))
	}
	if a.Converged != b.Converged {
		diffs = append(diffs, fmt.Sprintf("Converged: %v vs %v", a.Converged, b.Converged))
	}
	if !reflect.DeepEqual(a.Chaos, b.Chaos) {
		diffs = append(diffs, fmt.Sprintf("Chaos: %+v vs %+v", a.Chaos, b.Chaos))
	}
	if reflect.DeepEqual(a.Stats, b.Stats) {
		return diffs
	}
	if len(a.Stats) != len(b.Stats) || (a.Stats == nil) != (b.Stats == nil) {
		return append(diffs, fmt.Sprintf("Stats: %+v vs %+v", a.Stats, b.Stats))
	}
	for i := range a.Stats {
		x, y := reflect.ValueOf(a.Stats[i]), reflect.ValueOf(b.Stats[i])
		for f := 0; f < x.NumField(); f++ {
			if xf, yf := x.Field(f).Interface(), y.Field(f).Interface(); !reflect.DeepEqual(xf, yf) {
				diffs = append(diffs, fmt.Sprintf("Stats[%d].%s: %v vs %v", i, x.Type().Field(f).Name, xf, yf))
			}
		}
	}
	return diffs
}

// TestDeployChaosTracePinned pins the injected-fault trace of the replay
// base spec: every event's (From, To, Index, Round, Kind, Delay) is hashed
// in trace order, so any change to how chaos attaches to the links — which
// frames it sees, in which per-link order, with which stream draws — moves
// the digest or the event count.
func TestDeployChaosTracePinned(t *testing.T) {
	const (
		wantEvents = 791
		wantDigest = "a4c2377482382027424565a2158cbc1c93090dd0f9c5b43a96292f9a173bf889"
	)
	_, trace := runChaosDeploy(t, chaosDeploySpec(42))
	h := sha256.New()
	for _, ev := range trace {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", ev.From, ev.To, ev.Index, ev.Round, ev.Kind, ev.Delay)
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(trace) != wantEvents || got != wantDigest {
		t.Errorf("chaosDeploySpec(42) trace: %d events, sha256 %s; want %d events, sha256 %s",
			len(trace), got, wantEvents, wantDigest)
	}
}

// TestDeployChaosRoundsPinned pins the computed horizon of chaosDeploySpec(42)
// with no FixedRounds: with F = 0 the lossless contraction is 0 (one round),
// chaos floors it at ½, and the loss rates stretch the result.
func TestDeployChaosRoundsPinned(t *testing.T) {
	const want = 12
	spec := chaosDeploySpec(42)
	spec.FixedRounds = 0
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	if got := dep.Rounds(); got != want {
		t.Errorf("chaosDeploySpec(42) without FixedRounds: %d rounds, want %d", got, want)
	}
}

// TestDeployChaosReplayDeterminism is the PR's acceptance criterion: two
// runs of the same ClusterSpec + ChaosSpec seed produce identical verdicts,
// identical per-node NodeStats, and an identical injected-fault trace — and
// a run within the model's fault budget still converges. The same replay
// contract holds at every PipelineDepth: chaos deployments pin SyncRounds
// semantics per round index, so pipelining changes no frame's round and the
// votes, decisions and fault trace match the lockstep baseline bit-for-bit.
func TestDeployChaosReplayDeterminism(t *testing.T) {
	res1, trace1 := runChaosDeploy(t, chaosDeploySpec(42))
	res2, trace2 := runChaosDeploy(t, chaosDeploySpec(42))

	if len(trace1) == 0 {
		t.Fatal("chaos run injected no faults; the replay assertion is vacuous")
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("fault traces diverge across same-seed runs:\n  run1: %d events\n  run2: %d events", len(trace1), len(trace2))
	}
	for _, d := range replayDiffs(res1, res2) {
		t.Errorf("same-seed runs diverge: %s", d)
	}

	// Pipelined depths replay the same way — and reproduce the lockstep
	// baseline's verdict surface exactly, fault trace included. Per-node
	// Stats are compared within a depth only: PeerMisses and StallEvents
	// exist only at depth k > 0.
	for _, depth := range []int{2, 8} {
		pspec := chaosDeploySpec(42)
		pspec.PipelineDepth = depth
		p1, ptrace1 := runChaosDeploy(t, pspec)
		p2, ptrace2 := runChaosDeploy(t, pspec)
		if !reflect.DeepEqual(ptrace1, ptrace2) {
			t.Fatalf("depth %d: fault traces diverge across same-seed runs", depth)
		}
		for _, d := range replayDiffs(p1, p2) {
			t.Errorf("depth %d: same-seed runs diverge: %s", depth, d)
		}
		if !reflect.DeepEqual(ptrace1, trace1) {
			t.Errorf("depth %d: fault trace diverges from the lockstep baseline", depth)
		}
		if !reflect.DeepEqual(p1.Votes, res1.Votes) {
			t.Errorf("depth %d votes diverge from lockstep under SyncRounds:\n  %v\n  %v", depth, p1.Votes, res1.Votes)
		}
		if !reflect.DeepEqual(p1.Decided, res1.Decided) || p1.Converged != res1.Converged {
			t.Errorf("depth %d verdict diverges from lockstep: converged=%v decided=%v", depth, p1.Converged, p1.Decided)
		}
	}

	// Within the model's fault budget the Table 2 bounds still hold: the
	// run must converge and stay within the correct-input range.
	if !res1.Converged {
		t.Errorf("in-budget chaos run did not converge (diameter %g)", res1.DecisionDiameter())
	}
	if !res1.Valid() {
		t.Error("in-budget chaos run violated validity")
	}

	// A different seed injects a different campaign.
	_, trace3 := runChaosDeploy(t, chaosDeploySpec(43))
	if reflect.DeepEqual(trace1, trace3) {
		t.Error("different seeds produced identical fault traces")
	}

	// Chaos losses are attributed in the per-node counters.
	var dup, corrupt int64
	for _, st := range res1.Stats {
		dup += st.Duplicates
		corrupt += st.Corrupt
	}
	if res1.Chaos.Duplicated > 0 && dup == 0 {
		t.Error("injected duplicates never surfaced in NodeStats.Duplicates")
	}
	if res1.Chaos.Corrupted > 0 && corrupt == 0 {
		t.Error("injected corruption never surfaced in NodeStats.Corrupt")
	}
}

// TestDeployChaosCountersFoldExactly checks that each chaos loss the
// injector counts reaches exactly one node's NodeStats through the links'
// Counters, not merely that some did: the corrupted frames on the replay
// base spec, and the partition and crash drops of a spec with both windows.
// Under SyncRounds each node sends its last frames a full RoundTimeout
// before any node can return, so no loss is counted after a node's stats
// are read.
func TestDeployChaosCountersFoldExactly(t *testing.T) {
	res, _ := runChaosDeploy(t, chaosDeploySpec(42))
	var corrupt int64
	for _, st := range res.Stats {
		corrupt += st.Corrupt
	}
	if res.Chaos.Corrupted == 0 {
		t.Fatal("chaos run corrupted no frame; the fold check is vacuous")
	}
	if corrupt != res.Chaos.Corrupted {
		t.Errorf("Σ NodeStats.Corrupt = %d, want ChaosStats.Corrupted = %d", corrupt, res.Chaos.Corrupted)
	}

	spec := chaosDeploySpec(42)
	spec.Chaos = &mbfaa.ChaosSpec{
		Seed:       5,
		Partitions: []mbfaa.PartitionWindow{{Start: 1, End: 3, A: []int{0}}},
		Crashes:    []mbfaa.CrashWindow{{Node: 5, Start: 4, End: 6}},
	}
	res, _ = runChaosDeploy(t, spec)
	var partitioned int64
	for _, st := range res.Stats {
		partitioned += st.Partitioned
	}
	if res.Chaos.PartitionDrops == 0 || res.Chaos.CrashDrops == 0 {
		t.Fatalf("windows dropped nothing (chaos: %+v); the fold check is vacuous", res.Chaos)
	}
	if want := res.Chaos.PartitionDrops + res.Chaos.CrashDrops; partitioned != want {
		t.Errorf("Σ NodeStats.Partitioned = %d, want PartitionDrops + CrashDrops = %d", partitioned, want)
	}
}

// TestDeployTCPConnectionChaos runs a real TCP deployment under injected
// connection faults: seeded mid-stream resets tear connections down and
// seeded dial-failure windows fight the redials. The self-healing writers
// must absorb every outage — the run completes and converges with no
// *NodeDownError, the damage surfaces only as omission-style NodeStats
// counters, and the same seed reproduces the same fault trace and verdict.
func TestDeployTCPConnectionChaos(t *testing.T) {
	spec := func() mbfaa.ClusterSpec {
		return mbfaa.ClusterSpec{
			Model:        mbfaa.M4,
			N:            8,
			Inputs:       deployInputs(31, 8, 0, 1),
			Epsilon:      1e-3,
			InputRange:   1,
			FixedRounds:  10,
			RoundTimeout: 200 * time.Millisecond,
			Transport:    "tcp",
			Chaos: &mbfaa.ChaosSpec{
				Seed:          3,
				ResetRate:     0.05,
				DialFailRate:  0.2,
				DialFailBurst: 2,
			},
			// Heal outages well inside the round deadline so no frame misses
			// its round and the verdict stays deterministic.
			Retry: &mbfaa.RetryPolicy{Base: time.Millisecond, Max: 8 * time.Millisecond, Budget: 2 * time.Second},
		}
	}

	res1, trace1 := runChaosDeploy(t, spec())
	res2, trace2 := runChaosDeploy(t, spec())

	if res1.Chaos == nil || res1.Chaos.Resets == 0 {
		t.Fatalf("ResetRate 0.05 injected no connection resets; the heal assertion is vacuous (chaos: %+v)", res1.Chaos)
	}
	if !res1.Converged {
		t.Errorf("TCP run under connection chaos did not converge (diameter %g)", res1.DecisionDiameter())
	}
	var reconnects, downEvents int64
	for _, st := range res1.Stats {
		reconnects += st.Reconnects
		downEvents += st.PeerDownEvents
	}
	if reconnects == 0 {
		t.Error("injected resets produced no reconnects in NodeStats")
	}
	if downEvents != 0 {
		t.Errorf("healable outages marked %d peers down; the budget must absorb them", downEvents)
	}

	// Same seed, same campaign: the fault trace and the verdict surface
	// replay bit-for-bit. Per-node Stats are NOT compared — reconnect and
	// dial-retry counts depend on real outage timing.
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("fault traces diverge across same-seed TCP runs: %d vs %d events", len(trace1), len(trace2))
	}
	if !reflect.DeepEqual(res1.Votes, res2.Votes) {
		t.Errorf("votes diverge across same-seed TCP runs")
	}
	if !reflect.DeepEqual(res1.Decided, res2.Decided) || res1.Converged != res2.Converged {
		t.Errorf("verdicts diverge across same-seed TCP runs")
	}
}

// TestDeployRetryValidation pins the retry-policy gate: malformed policies
// and backoffs too slow for the round deadline are rejected at Deploy time
// as spec errors, before any socket opens.
func TestDeployRetryValidation(t *testing.T) {
	base := chaosDeploySpec(1)
	base.Transport = "tcp"

	bad := base
	bad.Retry = &mbfaa.RetryPolicy{Base: -time.Millisecond}
	if _, err := mbfaa.NewEngine().Deploy(bad); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("negative retry base deployed: err = %v, want ErrSpec", err)
	}

	inverted := base
	inverted.Retry = &mbfaa.RetryPolicy{Base: 50 * time.Millisecond, Max: time.Millisecond}
	if _, err := mbfaa.NewEngine().Deploy(inverted); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("max below base deployed: err = %v, want ErrSpec", err)
	}

	slow := base
	slow.Retry = &mbfaa.RetryPolicy{Base: 200 * time.Millisecond, Max: 400 * time.Millisecond}
	slow.RoundTimeout = 150 * time.Millisecond
	if _, err := mbfaa.NewEngine().Deploy(slow); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("backoff base past half the round timeout deployed: err = %v, want ErrSpec", err)
	}
}

// TestDeployChaosSpecRoundTrip pins the replay workflow's serialization: a
// ClusterSpec with a ChaosSpec and RetryPolicy survives JSON intact, so a
// printed seed can be copied into a stored spec.
func TestDeployChaosSpecRoundTrip(t *testing.T) {
	spec := chaosDeploySpec(7)
	spec.Chaos.Partitions = []mbfaa.PartitionWindow{{Start: 2, End: 4, A: []int{0, 1}}}
	spec.Chaos.Crashes = []mbfaa.CrashWindow{{Node: 3, Start: 1, End: 2}}
	spec.Chaos.ResetRate = 0.1
	spec.Chaos.DialFailRate = 0.05
	spec.Chaos.DialFailBurst = 2
	spec.Retry = &mbfaa.RetryPolicy{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Budget: 3 * time.Second, Seed: 9}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back mbfaa.ClusterSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Chaos, spec.Chaos) {
		t.Fatalf("chaos spec did not round-trip:\n  %+v\n  %+v", spec.Chaos, back.Chaos)
	}
	if !reflect.DeepEqual(back.Retry, spec.Retry) {
		t.Fatalf("retry policy did not round-trip:\n  %+v\n  %+v", spec.Retry, back.Retry)
	}
}

// TestDeployChaosBudgetValidation pins the fault-budget gate: chaos rates
// that push the effective per-round faults past the model's Table 2 bound
// are rejected at Deploy time with the same ErrBelowBound chain as an
// under-provisioned schedule, and AllowSubBound opts out.
func TestDeployChaosBudgetValidation(t *testing.T) {
	over := mbfaa.ClusterSpec{
		Model:      mbfaa.M4,
		N:          5,
		F:          1,
		Inputs:     deployInputs(3, 5, 0, 1),
		Epsilon:    1e-3,
		InputRange: 1,
		Chaos:      &mbfaa.ChaosSpec{Seed: 1, DropRate: 0.5},
	}
	if _, err := mbfaa.NewEngine().Deploy(over); !errors.Is(err, mbfaa.ErrBelowBound) {
		t.Fatalf("over-budget chaos deployed: err = %v, want ErrBelowBound", err)
	}

	over.AllowSubBound = true
	dep, err := mbfaa.NewEngine().Deploy(over)
	if err != nil {
		t.Fatalf("AllowSubBound did not waive the budget check: %v", err)
	}
	_ = dep.Close()

	bad := over
	bad.AllowSubBound = false
	bad.Chaos = &mbfaa.ChaosSpec{Seed: 1, DropRate: 1.5}
	if _, err := mbfaa.NewEngine().Deploy(bad); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("rate 1.5 deployed: err = %v, want ErrSpec", err)
	}

	slow := over
	slow.AllowSubBound = false
	slow.Chaos = &mbfaa.ChaosSpec{Seed: 1, LatencyMax: time.Second}
	slow.RoundTimeout = 100 * time.Millisecond
	if _, err := mbfaa.NewEngine().Deploy(slow); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("latency past the deadline deployed: err = %v, want ErrSpec", err)
	}
}

// TestDeployChaosNodeDown pins the watchdog surface: a run that cannot
// finish inside its horizon returns a typed *NodeDownError with the
// surviving partial result attached, instead of hanging.
func TestDeployChaosNodeDown(t *testing.T) {
	const n = 4
	spec := mbfaa.ClusterSpec{
		Model:        mbfaa.M4,
		N:            n,
		Inputs:       deployInputs(9, n, 0, 1),
		Epsilon:      1e-3,
		InputRange:   1,
		FixedRounds:  50,
		RoundTimeout: 60 * time.Millisecond,
		RunHorizon:   400 * time.Millisecond,
		// Node 0 never recovers: every round stalls to the full timeout and
		// the 50-round run blows through the 400ms horizon.
		Chaos: &mbfaa.ChaosSpec{Seed: 5, Crashes: []mbfaa.CrashWindow{{Node: 0, Start: 0}}},
	}
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	_, err = dep.Run(context.Background())
	if !errors.Is(err, mbfaa.ErrNodeDown) {
		t.Fatalf("run returned %v, want ErrNodeDown", err)
	}
	var down *mbfaa.NodeDownError
	if !errors.As(err, &down) {
		t.Fatalf("error %T does not unwrap to *NodeDownError", err)
	}
	if len(down.Nodes) == 0 {
		t.Error("NodeDownError names no nodes")
	}
	if down.Partial == nil || len(down.Partial.Stats) != n {
		t.Fatalf("NodeDownError carries no usable partial result: %+v", down.Partial)
	}
	for _, id := range down.Nodes {
		if down.Partial.Decided[id] {
			t.Errorf("down node %d marked decided", id)
		}
	}
}

// TestDeployChaosHorizonStretch pins the automatic horizon stretch: with no
// FixedRounds, injected loss rates and heal windows extend the lockstep
// round count on every node, and the run still completes and converges.
func TestDeployChaosHorizonStretch(t *testing.T) {
	const n = 8
	base := mbfaa.ClusterSpec{
		Model:      mbfaa.M4,
		N:          n,
		Inputs:     deployInputs(17, n, 0, 1),
		Epsilon:    1e-2,
		InputRange: 1,
	}
	plain, err := mbfaa.NewEngine().Deploy(base)
	if err != nil {
		t.Fatal(err)
	}
	_ = plain.Close()

	chaotic := base
	chaotic.Chaos = &mbfaa.ChaosSpec{
		Seed:       2,
		DropRate:   0.05,
		Partitions: []mbfaa.PartitionWindow{{Start: 1, End: 3, A: []int{0}}},
	}
	dep, err := mbfaa.NewEngine().Deploy(chaotic)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	if dep.Rounds() <= plain.Rounds() {
		t.Fatalf("chaos horizon %d not stretched past the plain %d", dep.Rounds(), plain.Rounds())
	}
	res, err := dep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("stretched chaos run did not converge (diameter %g over %d rounds)",
			res.DecisionDiameter(), res.Rounds)
	}
}
