package mbfaa_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"mbfaa"
	"mbfaa/internal/golden"
)

// serviceSpec is the shared base for the service tests: a small rotating-
// fault mesh with a pinned input range so every instance computes the same
// round horizon. The generous round timeout is free on the reliable memory
// transport (deadlines only fire on real omissions) and keeps the
// determinism assertions immune to scheduler stalls.
func serviceSpec() mbfaa.ServiceSpec {
	return mbfaa.ServiceSpec{
		Model:        mbfaa.M1,
		N:            6,
		F:            1,
		Epsilon:      1e-3,
		InputRange:   1,
		RoundTimeout: time.Second,
		ScheduleName: "rotating",
	}
}

// deploymentDigest runs the equivalent single-shot Deployment and returns
// its verdict digest — the service's reference value.
func deploymentDigest(t *testing.T, spec mbfaa.ServiceSpec, inputs []float64) uint64 {
	t.Helper()
	dep, err := mbfaa.NewEngine().Deploy(mbfaa.ClusterSpec{
		Model:        spec.Model,
		N:            spec.N,
		F:            spec.F,
		Inputs:       inputs,
		Epsilon:      spec.Epsilon,
		InputRange:   spec.InputRange,
		FixedRounds:  spec.FixedRounds,
		RoundTimeout: spec.RoundTimeout,
		ScheduleName: spec.ScheduleName,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	res, err := dep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return golden.Digest(&res.Result)
}

// TestServiceSubmitAwait: one instance through the service matches the
// single-shot Deployment verdict bit for bit, and the lifecycle counters
// track it.
func TestServiceSubmitAwait(t *testing.T) {
	spec := serviceSpec()
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	if svc.N() != spec.N {
		t.Fatalf("N() = %d, want %d", svc.N(), spec.N)
	}
	inputs := deployInputs(31, spec.N, 0, 1)
	h, err := svc.Submit(context.Background(), 1, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 1 {
		t.Errorf("handle ID = %d", h.ID())
	}
	res, err := svc.Await(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Valid() {
		t.Errorf("service run converged=%v valid=%v", res.Converged, res.Valid())
	}
	if got, want := golden.Digest(&res.Result), deploymentDigest(t, spec, inputs); got != want {
		t.Errorf("service digest 0x%016x != deployment digest 0x%016x", got, want)
	}
	for id, st := range res.Stats {
		if st.Overflow != 0 {
			t.Errorf("node %d dropped %d frames on a full instance inbox in a lone run", id, st.Overflow)
		}
	}
	// Done is closed once the instance has finished, whenever it is asked.
	select {
	case <-h.Done():
	default:
		t.Error("Done is open after Await returned")
	}
	// A second Await returns the same completed result.
	res2, err := svc.Await(context.Background(), h)
	if err != nil || res2 != res {
		t.Errorf("re-Await = (%p, %v), want the cached (%p, nil)", res2, err, res)
	}
	st := svc.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 1 submitted, 1 completed", st)
	}
	if st.Frames == 0 || st.Flushes == 0 {
		t.Errorf("no coalescer traffic recorded: %+v", st)
	}
}

// TestServicePipelined: a pipelined service (every instance's nodes running
// up to PipelineDepth rounds ahead) still completes and converges on every
// instance. The quorum close may rule slow frames omissions, so the horizon
// is pinned with slack instead of relying on the lossless contraction rate.
func TestServicePipelined(t *testing.T) {
	const instances = 6
	spec := serviceSpec()
	spec.PipelineDepth = 2
	spec.FixedRounds = 20
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	handles := make([]*mbfaa.Handle, instances)
	for i := range handles {
		h, err := svc.Submit(context.Background(), uint32(i+1), deployInputs(uint64(40+i), spec.N, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := svc.Await(context.Background(), h)
		if err != nil {
			t.Fatalf("instance %d: %v", i+1, err)
		}
		if !res.Converged || !res.Valid() {
			t.Errorf("instance %d: converged=%v valid=%v diameter=%g",
				i+1, res.Converged, res.Valid(), res.DecisionDiameter())
		}
	}
	if st := svc.Stats(); st.Completed != instances || st.Failed != 0 {
		t.Errorf("stats = %+v, want %d completed", st, instances)
	}
}

// TestServiceStatsCountAwaited: once Await returns, Stats already counts
// that instance as completed or failed. The lifecycle counter must be
// updated before the handle is released, or a Stats call right after Await
// reads one short.
func TestServiceStatsCountAwaited(t *testing.T) {
	const instances = 300
	spec := serviceSpec()
	spec.FixedRounds = 2
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	inputs := deployInputs(7, spec.N, 0, 1)
	for i := 0; i < instances; i++ {
		h, err := svc.Submit(context.Background(), uint32(i+1), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Await(context.Background(), h); err != nil {
			t.Fatalf("instance %d: %v", i+1, err)
		}
		if st := svc.Stats(); st.Completed+st.Failed != int64(i+1) {
			t.Fatalf("after awaiting instance %d: completed=%d failed=%d, want %d finished",
				i+1, st.Completed, st.Failed, i+1)
		}
	}
}

// TestServiceConcurrentGoldenDigests is the tentpole determinism criterion:
// many concurrent instances each produce a verdict bit-identical to their
// single-instance Deployment digest, at different concurrency bounds and
// through both the Await and the Results delivery paths — the interleaving
// of instances over the shared mesh must never leak between them.
func TestServiceConcurrentGoldenDigests(t *testing.T) {
	const instances = 12
	spec := serviceSpec()
	inputSets := make([][]float64, instances)
	want := make([]uint64, instances)
	for i := range inputSets {
		inputSets[i] = deployInputs(100+uint64(i), spec.N, 0, 1)
		want[i] = deploymentDigest(t, spec, inputSets[i])
	}

	// Pass 1: saturated service (concurrency 4 < 12 instances exercises
	// backpressure), results via Await from concurrent submitters.
	spec.MaxConcurrent = 4
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]uint64, instances)
	errs := make([]error, instances)
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := svc.Submit(context.Background(), uint32(i+1), inputSets[i])
			if err != nil {
				errs[i] = err
				return
			}
			res, err := svc.Await(context.Background(), h)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = golden.Digest(&res.Result)
		}(i)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("instance %d: %v", i+1, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("instance %d digest 0x%016x != deployment 0x%016x (concurrency 4)", i+1, got[i], want[i])
		}
	}

	// Pass 2: all instances fully concurrent, results via the stream.
	spec.MaxConcurrent = instances
	svc2, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	stream := svc2.Results()
	for i := 0; i < instances; i++ {
		if _, err := svc2.Submit(context.Background(), uint32(i+1), inputSets[i]); err != nil {
			t.Fatal(err)
		}
	}
	collected := make(map[uint32]uint64, instances)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ir := range stream {
			if ir.Err != nil {
				t.Errorf("instance %d failed: %v", ir.ID, ir.Err)
				continue
			}
			collected[ir.ID] = golden.Digest(&ir.Result.Result)
		}
	}()
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(collected) != instances {
		t.Fatalf("results stream delivered %d of %d instances", len(collected), instances)
	}
	for i := 0; i < instances; i++ {
		if collected[uint32(i+1)] != want[i] {
			t.Errorf("instance %d streamed digest 0x%016x != deployment 0x%016x", i+1, collected[uint32(i+1)], want[i])
		}
	}
	if st := svc2.Stats(); st.Unrouted != 0 || st.Stale != 0 || st.InboxDrops != 0 {
		t.Errorf("demux dropped frames in a clean run: %+v", st)
	}
}

// serviceChaosSpec mirrors chaosDeploySpec for the service: the same
// drop/dup/corrupt/latency mix whose per-node stats replay bit-for-bit.
func serviceChaosSpec(seed uint64) mbfaa.ServiceSpec {
	return mbfaa.ServiceSpec{
		Model:        mbfaa.M4,
		N:            8,
		Epsilon:      1e-3,
		InputRange:   1,
		FixedRounds:  10,
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

// chaosServiceOutcome is one instance's replay-relevant surface.
type chaosServiceOutcome struct {
	votes   []float64
	decided []bool
	stats   []mbfaa.NodeStats
	chaos   *mbfaa.ChaosStats
	trace   []mbfaa.FaultEvent
}

// runChaosService runs the given instance ids (concurrently) through one
// service lifecycle and returns their outcomes by id.
func runChaosService(t *testing.T, spec mbfaa.ServiceSpec, ids []uint32, inputsOf func(uint32) []float64) map[uint32]chaosServiceOutcome {
	t.Helper()
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	handles := make(map[uint32]*mbfaa.Handle, len(ids))
	for _, id := range ids {
		h, err := svc.Submit(context.Background(), id, inputsOf(id))
		if err != nil {
			t.Fatal(err)
		}
		handles[id] = h
	}
	out := make(map[uint32]chaosServiceOutcome, len(ids))
	stream := map[uint32]mbfaa.InstanceResult{}
	res := svc.Results()
	go func() {
		_ = svc.Close()
	}()
	for ir := range res {
		stream[ir.ID] = ir
	}
	for _, id := range ids {
		ir, ok := stream[id]
		if !ok {
			t.Fatalf("instance %d never completed", id)
		}
		if ir.Err != nil {
			t.Fatalf("instance %d: %v", id, ir.Err)
		}
		out[id] = chaosServiceOutcome{
			votes:   ir.Result.Votes,
			decided: ir.Result.Decided,
			stats:   ir.Result.Stats,
			chaos:   ir.Result.Chaos,
			trace:   ir.Trace,
		}
		_ = handles[id]
	}
	return out
}

// TestServiceChaosReplayDeterminism mirrors TestDeployChaosReplayDeterminism
// through the service path: every instance's chaos campaign is seeded from
// the template seed and its instance id, so two service lifecycles replay
// every instance's fault trace, votes and per-node stats bit-for-bit —
// regardless of which other instances shared the mesh.
func TestServiceChaosReplayDeterminism(t *testing.T) {
	ids := []uint32{1, 2, 3}
	inputsOf := func(id uint32) []float64 { return deployInputs(uint64(200+id), 8, 0, 1) }

	first := runChaosService(t, serviceChaosSpec(42), ids, inputsOf)
	second := runChaosService(t, serviceChaosSpec(42), ids, inputsOf)

	for _, id := range ids {
		a, b := first[id], second[id]
		if len(a.trace) == 0 {
			t.Fatalf("instance %d injected no faults; the replay assertion is vacuous", id)
		}
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Errorf("instance %d fault traces diverge: %d vs %d events", id, len(a.trace), len(b.trace))
		}
		if !reflect.DeepEqual(a.votes, b.votes) {
			t.Errorf("instance %d votes diverge:\n  %v\n  %v", id, a.votes, b.votes)
		}
		if !reflect.DeepEqual(a.decided, b.decided) {
			t.Errorf("instance %d decided sets diverge", id)
		}
		if !reflect.DeepEqual(a.stats, b.stats) {
			t.Errorf("instance %d per-node stats diverge:\n  %+v\n  %+v", id, a.stats, b.stats)
		}
		if !reflect.DeepEqual(a.chaos, b.chaos) {
			t.Errorf("instance %d chaos stats diverge: %+v vs %+v", id, a.chaos, b.chaos)
		}
	}
	// Distinct instances run distinct campaigns (per-instance seed derivation).
	if reflect.DeepEqual(first[1].trace, first[2].trace) {
		t.Error("instances 1 and 2 share one fault trace; per-instance seeds are not derived")
	}
}

// TestServiceBackpressureAndNodeDown pins the concurrency bound and the
// failure surface: saturated Submits block until their context expires, a
// duplicate active id is rejected typed, and an instance that blows its
// watchdog fails with *NodeDownError carrying the partial result.
func TestServiceBackpressureAndNodeDown(t *testing.T) {
	spec := mbfaa.ServiceSpec{
		Model:         mbfaa.M4,
		N:             4,
		Epsilon:       1e-3,
		InputRange:    1,
		FixedRounds:   50,
		RoundTimeout:  40 * time.Millisecond,
		RunHorizon:    600 * time.Millisecond,
		MaxConcurrent: 2,
		// Node 0 never recovers: every round stalls to the timeout and the
		// 50-round run blows through the 600ms horizon.
		Chaos: &mbfaa.ChaosSpec{Crashes: []mbfaa.CrashWindow{{Node: 0, Start: 0}}},
	}
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	inputs := deployInputs(9, 4, 0, 1)

	h1, err := svc.Submit(context.Background(), 7, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// The same id is still active: rejected with a typed spec error without
	// consuming a slot.
	if _, err := svc.Submit(context.Background(), 7, inputs); !errors.Is(err, mbfaa.ErrSpec) {
		t.Fatalf("duplicate active id: err = %v, want ErrSpec", err)
	}
	h2, err := svc.Submit(context.Background(), 8, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Both slots are held by stalled instances: a third Submit blocks until
	// its context gives up.
	shortCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := svc.Submit(shortCtx, 9, inputs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated Submit: err = %v, want DeadlineExceeded", err)
	}

	for _, h := range []*mbfaa.Handle{h1, h2} {
		res, err := svc.Await(context.Background(), h)
		if !errors.Is(err, mbfaa.ErrNodeDown) {
			t.Fatalf("instance %d: err = %v, want ErrNodeDown", h.ID(), err)
		}
		var down *mbfaa.NodeDownError
		if !errors.As(err, &down) || down.Partial == nil {
			t.Fatalf("instance %d error %T carries no partial result", h.ID(), err)
		}
		if res == nil || res != down.Partial {
			t.Errorf("instance %d Await result %p != partial %p", h.ID(), res, down.Partial)
		}
	}
	// The slots are free again, and a finished id is reusable.
	shortCtx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	h3, err := svc.Submit(shortCtx2, 7, inputs)
	if err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
	if _, err := svc.Await(context.Background(), h3); !errors.Is(err, mbfaa.ErrNodeDown) {
		t.Fatalf("reused id: err = %v, want ErrNodeDown", err)
	}
	if st := svc.Stats(); st.Failed != 3 || st.Completed != 0 {
		t.Errorf("stats = %+v, want 3 failed", st)
	}
}

// TestServiceClose pins the shutdown contract: Close drains in-flight
// instances, later Submits fail with ErrServiceClosed, a second Close is a
// no-op, and cancelling the serve context also closes the submission side.
func TestServiceClose(t *testing.T) {
	spec := serviceSpec()
	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	inputs := deployInputs(13, spec.N, 0, 1)
	h, err := svc.Submit(context.Background(), 1, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-flight instance was drained, not aborted.
	if res, err := svc.Await(context.Background(), h); err != nil || !res.Converged {
		t.Errorf("drained instance: res=%v err=%v", res, err)
	}
	if _, err := svc.Submit(context.Background(), 2, inputs); !errors.Is(err, mbfaa.ErrServiceClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrServiceClosed", err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	// Cancelling the serve context fails Submits the same way.
	ctx, cancel := context.WithCancel(context.Background())
	svc2, err := mbfaa.NewEngine().Serve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := svc2.Submit(context.Background(), 1, inputs); !errors.Is(err, mbfaa.ErrServiceClosed) {
		t.Errorf("Submit after serve-ctx cancel: err = %v, want ErrServiceClosed", err)
	}
	if err := svc2.Close(); err != nil {
		t.Errorf("Close after cancel: %v", err)
	}
}

// TestServiceTCP runs concurrent instances over real loopback sockets: every
// instance matches the deployment digest, and the frames of different
// instances coalesce into shared socket writes.
func TestServiceTCP(t *testing.T) {
	const instances = 6
	spec := serviceSpec()
	spec.Transport = "tcp"
	spec.MaxConcurrent = instances
	inputs := deployInputs(77, spec.N, 0, 1)
	memSpec := spec
	memSpec.Transport = ""
	want := deploymentDigest(t, memSpec, inputs)

	svc, err := mbfaa.NewEngine().Serve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	digests := make([]uint64, instances)
	errs := make([]error, instances)
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := svc.Submit(context.Background(), uint32(i+1), inputs)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := svc.Await(context.Background(), h)
			if err != nil {
				errs[i] = err
				return
			}
			digests[i] = golden.Digest(&res.Result)
		}(i)
	}
	wg.Wait()
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range digests {
		if errs[i] != nil {
			t.Fatalf("instance %d: %v", i+1, errs[i])
		}
		if digests[i] != want {
			t.Errorf("TCP instance %d digest 0x%016x != deployment 0x%016x", i+1, digests[i], want)
		}
	}
	if st.SocketWrites == 0 || st.SocketFrames == 0 {
		t.Fatalf("no socket traffic recorded: %+v", st)
	}
	if fpw := st.FramesPerWrite(); fpw < 1 {
		t.Errorf("frames/write = %g < 1", fpw)
	}
	t.Logf("tcp coalescing: %d frames in %d writes (%.2f frames/write), %.2f frames/flush",
		st.SocketFrames, st.SocketWrites, st.FramesPerWrite(), st.FramesPerFlush())
}

// TestServeValidation pins the eager typed-error surface of Serve and
// Submit.
func TestServeValidation(t *testing.T) {
	eng := mbfaa.NewEngine()
	bad := []struct {
		name   string
		mutate func(*mbfaa.ServiceSpec)
	}{
		{"no-n", func(s *mbfaa.ServiceSpec) { s.N = 0 }},
		{"model", func(s *mbfaa.ServiceSpec) { s.Model = 99 }},
		{"transport", func(s *mbfaa.ServiceSpec) { s.Transport = "carrier-pigeon" }},
		{"schedule", func(s *mbfaa.ServiceSpec) { s.ScheduleName = "nope" }},
		{"median-unbounded", func(s *mbfaa.ServiceSpec) { s.AlgorithmName = "median"; s.FixedRounds = 0 }},
		{"negative-concurrency", func(s *mbfaa.ServiceSpec) { s.MaxConcurrent = -1 }},
		{"bad-retry", func(s *mbfaa.ServiceSpec) { s.Retry = &mbfaa.RetryPolicy{Base: -time.Millisecond} }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			spec := serviceSpec()
			tc.mutate(&spec)
			if _, err := eng.Serve(context.Background(), spec); !errors.Is(err, mbfaa.ErrSpec) {
				t.Errorf("err = %v, want ErrSpec", err)
			}
		})
	}

	svc, err := eng.Serve(context.Background(), serviceSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	if _, err := svc.Submit(context.Background(), 1, []float64{1, 2}); !errors.Is(err, mbfaa.ErrSpec) {
		t.Errorf("short inputs: err = %v, want ErrSpec", err)
	}
	if _, err := svc.Submit(context.Background(), 1, []float64{0, 1, 2, 3, 4, math.NaN()}); !errors.Is(err, mbfaa.ErrSpec) {
		t.Errorf("NaN input: err = %v, want ErrSpec", err)
	}
	if _, err := svc.Await(context.Background(), nil); !errors.Is(err, mbfaa.ErrSpec) {
		t.Errorf("nil handle: err = %v, want ErrSpec", err)
	}
}
