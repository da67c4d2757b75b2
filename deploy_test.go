package mbfaa_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"mbfaa"
	"mbfaa/internal/mobile"
	"mbfaa/internal/prng"
)

// deployInputs returns n values spread over [lo, hi].
func deployInputs(seed uint64, n int, lo, hi float64) []float64 {
	rng := prng.New(seed)
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = rng.Range(lo, hi)
	}
	return inputs
}

// TestDeploy64NodeFullMesh is the acceptance run: a 64-node in-memory
// full-mesh deployment under a rotating 3-agent schedule reaches
// convergence, and the simulation engine agrees on the verdict for the
// matching Spec.
func TestDeploy64NodeFullMesh(t *testing.T) {
	const n, f = 64, 3
	inputs := deployInputs(11, n, 20, 21)
	spec := mbfaa.ClusterSpec{
		Model:        mbfaa.M1,
		N:            n,
		F:            f,
		Inputs:       inputs,
		Epsilon:      1e-3,
		InputRange:   1,
		ScheduleName: "rotating",
	}
	eng := mbfaa.NewEngine()
	dep, err := eng.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	res, err := dep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("64-node deployment did not converge (diameter %g)", res.DecisionDiameter())
	}
	if got := res.DecisionDiameter(); got > 1e-3 {
		t.Errorf("decision diameter %g > ε", got)
	}
	if !res.Valid() {
		t.Error("validity violated: a decision left the correct-input range")
	}
	if len(res.Stats) != n {
		t.Fatalf("got %d node stats, want %d", len(res.Stats), n)
	}
	for id, st := range res.Stats {
		if want := int64(n * res.Rounds); st.Sent != want {
			t.Errorf("node %d sent %d messages, want %d", id, st.Sent, want)
		}
		if st.Received == 0 {
			t.Errorf("node %d received nothing", id)
		}
	}

	// The simulation engine's verdict for the same system agrees.
	simSpec := mbfaa.NewSpec(
		mbfaa.WithModel(mbfaa.M1),
		mbfaa.WithSystem(n, f),
		mbfaa.WithInputs(inputs...),
		mbfaa.WithEpsilon(1e-3),
		mbfaa.WithAdversaryName("rotating"),
	)
	simRes, err := eng.Run(context.Background(), simSpec)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Converged != res.Converged {
		t.Errorf("verdict disagreement: simulation converged=%v, deployment converged=%v",
			simRes.Converged, res.Converged)
	}
}

// TestDeployTCP runs a small deployment over real loopback sockets.
func TestDeployTCP(t *testing.T) {
	const n, f = 9, 2
	dep, err := mbfaa.NewEngine().Deploy(mbfaa.ClusterSpec{
		Model:        mbfaa.M1,
		N:            n,
		F:            f,
		Inputs:       deployInputs(5, n, 0, 1),
		Epsilon:      1e-3,
		InputRange:   1,
		ScheduleName: "rotating",
		Transport:    "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	res, err := dep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("TCP deployment did not converge (diameter %g)", res.DecisionDiameter())
	}
	for id, st := range res.Stats {
		if st.Rejected != 0 {
			t.Errorf("node %d rejected %d frames in an honest-transport run", id, st.Rejected)
		}
	}
}

// TestClusterSpecValidate checks the eager typed-error surface.
func TestClusterSpecValidate(t *testing.T) {
	good := mbfaa.ClusterSpec{
		Model:      mbfaa.M1,
		N:          5,
		F:          1,
		Inputs:     []float64{1, 2, 3, 4, 5},
		Epsilon:    1e-3,
		InputRange: 4,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	bad := []struct {
		name   string
		mutate func(*mbfaa.ClusterSpec)
	}{
		{"model", func(s *mbfaa.ClusterSpec) { s.Model = 99 }},
		{"inputs-count", func(s *mbfaa.ClusterSpec) { s.Inputs = s.Inputs[:3] }},
		{"negative-f", func(s *mbfaa.ClusterSpec) { s.F = -1 }},
		{"epsilon", func(s *mbfaa.ClusterSpec) { s.Epsilon = -1 }},
		{"input-range-nan", func(s *mbfaa.ClusterSpec) { s.InputRange = math.NaN() }},
		{"input-range-negative", func(s *mbfaa.ClusterSpec) { s.InputRange = -1 }},
		{"algorithm", func(s *mbfaa.ClusterSpec) { s.AlgorithmName = "nope" }},
		{"schedule", func(s *mbfaa.ClusterSpec) { s.ScheduleName = "nope" }},
		{"transport", func(s *mbfaa.ClusterSpec) { s.Transport = "carrier-pigeon" }},
		{"pipeline-negative", func(s *mbfaa.ClusterSpec) { s.PipelineDepth = -1 }},
		{"pipeline-too-deep", func(s *mbfaa.ClusterSpec) { s.PipelineDepth = 33 }},
		{"pingpong-camps", func(s *mbfaa.ClusterSpec) { s.ScheduleName = "pingpong"; s.F = 3; s.AllowSubBound = true }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			s.Inputs = append([]float64(nil), good.Inputs...)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !errors.Is(err, mbfaa.ErrSpec) {
				t.Errorf("err %v does not wrap ErrSpec", err)
			}
		})
	}
}

// TestClusterSpecBoundCheck pins the resilience-bound bugfix: a deployment
// at n ≤ k·f fails eagerly with the model's typed *BoundError, and the
// AllowSubBound escape hatch restores the lower-bound regime.
func TestClusterSpecBoundCheck(t *testing.T) {
	spec := mbfaa.ClusterSpec{
		Model:      mbfaa.M1, // bound 4f: n must exceed 4
		N:          4,
		F:          1,
		Inputs:     []float64{0, 0.3, 0.6, 1},
		Epsilon:    1e-3,
		InputRange: 1,
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("sub-bound deployment accepted")
	}
	if !errors.Is(err, mbfaa.ErrBelowBound) {
		t.Errorf("err %v does not wrap ErrBelowBound", err)
	}
	var be *mbfaa.BoundError
	if !errors.As(err, &be) {
		t.Fatalf("err %T is not *BoundError", err)
	}
	if be.N != 4 || be.F != 1 || be.Model != mbfaa.M1 {
		t.Errorf("BoundError = %+v, want n=4 f=1 M1", be)
	}

	spec.AllowSubBound = true
	spec.FixedRounds = 4
	if err := spec.Validate(); err != nil {
		t.Fatalf("AllowSubBound spec rejected: %v", err)
	}
	// Deploy agrees with Validate on both sides.
	if _, err := mbfaa.NewEngine().Deploy(mbfaa.ClusterSpec{
		Model: mbfaa.M1, N: 4, F: 1, Inputs: []float64{0, 0.3, 0.6, 1},
		Epsilon: 1e-3, InputRange: 1,
	}); !errors.Is(err, mbfaa.ErrBelowBound) {
		t.Errorf("Deploy err = %v, want ErrBelowBound", err)
	}
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatalf("Deploy with AllowSubBound: %v", err)
	}
	_ = dep.Close()
}

// TestClusterSpecJSONRoundTrip: a name-selected spec survives JSON and
// produces an identical deployment description.
func TestClusterSpecJSONRoundTrip(t *testing.T) {
	spec := mbfaa.ClusterSpec{
		Model:         mbfaa.M2,
		N:             11,
		F:             1,
		Inputs:        deployInputs(3, 11, 0, 1),
		Epsilon:       1e-4,
		InputRange:    1,
		FixedRounds:   12,
		RoundTimeout:  150 * time.Millisecond,
		PipelineDepth: 3,
		AlgorithmName: "fta",
		ScheduleName:  "pingpong",
		Transport:     "memory",
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back mbfaa.ClusterSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped spec invalid: %v", err)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Errorf("JSON round trip not stable:\n%s\n%s", blob, blob2)
	}
	dep, err := mbfaa.NewEngine().Deploy(back)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	if dep.Rounds() != 12 {
		t.Errorf("deployment from round-tripped spec: rounds=%d", dep.Rounds())
	}

	// A stored spec with the removed partial-topology keys still decodes:
	// encoding/json ignores unknown keys, so it describes the full mesh.
	var legacy mbfaa.ClusterSpec
	if err := json.Unmarshal([]byte(`{"n":11,"f":1,"model":2,"topology":"ring","degree":4,"topology_seed":9}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.N != 11 || legacy.F != 1 || legacy.Model != mbfaa.M2 {
		t.Errorf("legacy spec decoded as %+v", legacy)
	}
}

// TestDeploymentSingleUse: a deployment runs once; reruns and runs after
// Close fail cleanly.
func TestDeploymentSingleUse(t *testing.T) {
	spec := mbfaa.ClusterSpec{
		N: 5, F: 1, Inputs: deployInputs(1, 5, 0, 1), Epsilon: 1e-2, InputRange: 1,
	}
	dep, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	if _, err := dep.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(context.Background()); err == nil {
		t.Error("second Run accepted")
	}
	dep2, err := mbfaa.NewEngine().Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dep2.Run(context.Background()); err == nil {
		t.Error("Run after Close accepted")
	}
}

// TestDeploymentCancel: cancelling the context aborts the deployment
// within a round.
func TestDeploymentCancel(t *testing.T) {
	dep, err := mbfaa.NewEngine().Deploy(mbfaa.ClusterSpec{
		N: 5, F: 1, Inputs: deployInputs(2, 5, 0, 1),
		Epsilon: 1e-2, InputRange: 1,
		FixedRounds:  10000,
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := dep.Run(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled deployment did not stop")
	}
}

// parkedAdversary keeps every agent off-system: Place returns no index, so
// an Engine.Run with it is the honest execution a fault-free deployment
// performs, while F still sets the trim τ.
type parkedAdversary struct{}

func (parkedAdversary) Name() string                                          { return "parked" }
func (parkedAdversary) Place(*mobile.View) []int                              { return nil }
func (parkedAdversary) LeaveBehind(*mobile.View, int) float64                 { return 0 }
func (parkedAdversary) RoundDirectives(*mobile.RoundView, *mobile.Directives) {}

// TestDeployOracleHonest is the simulator-equals-deployment oracle for the
// honest case: a lossless lockstep deployment with no fault schedule must
// reproduce the engine's votes bit for bit for every model and both
// trimmed algorithms, over the in-memory transport and over TCP. The 1 s
// round timeout is far above any round's delivery time, so no deadline
// fires and every node votes on all n values, as the engine's correct
// processes do.
func TestDeployOracleHonest(t *testing.T) {
	const n, f, rounds = 8, 1, 6
	inputs := deployInputs(31, n, 0, 1)
	type oracleCase struct {
		model     mbfaa.Model
		alg       string
		transport string
	}
	var cases []oracleCase
	for _, model := range []mbfaa.Model{mbfaa.M1, mbfaa.M2, mbfaa.M3, mbfaa.M4} {
		for _, alg := range []string{"fta", "ftm"} {
			cases = append(cases, oracleCase{model, alg, "memory"})
		}
	}
	cases = append(cases, oracleCase{mbfaa.M4, "ftm", "tcp"})
	eng := mbfaa.NewEngine()
	for _, tc := range cases {
		name := fmt.Sprintf("%v/%s/%s", tc.model, tc.alg, tc.transport)
		dep, err := eng.Deploy(mbfaa.ClusterSpec{
			Model:         tc.model,
			N:             n,
			F:             f,
			Inputs:        inputs,
			InputRange:    1,
			FixedRounds:   rounds,
			RoundTimeout:  time.Second,
			AlgorithmName: tc.alg,
			ScheduleName:  "none",
			Transport:     tc.transport,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := dep.Run(context.Background())
		_ = dep.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alg, err := mbfaa.AlgorithmByName(tc.alg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := eng.Run(context.Background(), mbfaa.NewSpec(
			mbfaa.WithModel(tc.model),
			mbfaa.WithSystem(n, f),
			mbfaa.WithInputs(inputs...),
			mbfaa.WithAlgorithm(alg),
			mbfaa.WithAdversary(parkedAdversary{}),
			mbfaa.WithFixedRounds(rounds),
		))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds != sim.Rounds || len(res.Votes) != len(sim.Votes) {
			t.Fatalf("%s: deployment ran %d rounds with %d votes, engine %d with %d",
				name, res.Rounds, len(res.Votes), sim.Rounds, len(sim.Votes))
		}
		for i := range res.Votes {
			if math.Float64bits(res.Votes[i]) != math.Float64bits(sim.Votes[i]) {
				t.Errorf("%s: node %d decided %v, engine %v", name, i, res.Votes[i], sim.Votes[i])
			}
		}
		for i, st := range res.Stats {
			if st.Omissions != 0 || st.Late != 0 || st.StaleRounds != 0 {
				t.Errorf("%s: node %d lost frames in a lossless run: %+v", name, i, st)
			}
		}
	}
}
