package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/prng"
	"mbfaa/internal/transport"
)

// buildConfigs returns n node configs with inputs spread in [lo, hi].
func buildConfigs(n, f int, model mobile.Model, schedule FaultSchedule, crash bool, lo, hi float64) []Config {
	rng := prng.New(77)
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			ID:           i,
			N:            n,
			F:            f,
			Model:        model,
			Algorithm:    msr.FTM{},
			Input:        rng.Range(lo, hi),
			InputRange:   hi - lo,
			Epsilon:      1e-3,
			RoundTimeout: 200 * time.Millisecond,
			Schedule:     schedule,
			Crash:        crash,
		}
	}
	return cfgs
}

// channelLinks builds an in-memory mesh.
func channelLinks(t *testing.T, n int) ([]transport.Link, func()) {
	t.Helper()
	hub, err := transport.NewChannel(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = hub.Link(i)
	}
	return links, func() { _ = hub.Close() }
}

// spread returns the diameter of the marked decisions.
func spread(decisions []float64, include []bool) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range decisions {
		if include != nil && !include[i] {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

func TestClusterHonestRun(t *testing.T) {
	const n, f = 7, 0
	links, closeHub := channelLinks(t, n)
	defer closeHub()
	cfgs := buildConfigs(n, f, mobile.M4Buhrman, NoFaults{}, false, 10, 11)
	decisions, err := RunCluster(context.Background(), cfgs, links)
	if err != nil {
		t.Fatal(err)
	}
	if got := spread(decisions, nil); got > 1e-3 {
		t.Errorf("honest cluster spread %g > ε", got)
	}
	for _, v := range decisions {
		if v < 10 || v > 11 {
			t.Errorf("decision %g outside input range", v)
		}
	}
}

func TestClusterWithMobileFaultsPerModel(t *testing.T) {
	for _, model := range mobile.AllModels() {
		model := model
		t.Run(model.Short(), func(t *testing.T) {
			f := 1
			n := model.RequiredN(f) + 1 // one above minimum: schedule-driven
			// faults are not worst-case aligned, but stay under the cap
			links, closeHub := channelLinks(t, n)
			defer closeHub()
			cfgs := buildConfigs(n, f, model, RotatingFaults{N: n, F: f}, false, 5, 6)
			decisions, err := RunCluster(context.Background(), cfgs, links)
			if err != nil {
				t.Fatal(err)
			}
			rounds, err := cfgs[0].Rounds()
			if err != nil {
				t.Fatal(err)
			}
			honest := HonestAtEnd(cfgs[0].Schedule, rounds, n)
			if got := spread(decisions, honest); got > 1e-3 {
				t.Errorf("%v: honest spread %g > ε", model, got)
			}
			for i, v := range decisions {
				if honest[i] && (v < 4 || v > 7) {
					t.Errorf("%v: node %d decided %g, far outside plausible range", model, i, v)
				}
			}
		})
	}
}

func TestClusterCrashFaults(t *testing.T) {
	const f = 2
	n := mobile.M1Garay.RequiredN(f)
	links, closeHub := channelLinks(t, n)
	defer closeHub()
	cfgs := buildConfigs(n, f, mobile.M1Garay, CrashFaults{N: n, F: f}, true, 0, 1)
	decisions, err := RunCluster(context.Background(), cfgs, links)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := cfgs[0].Rounds()
	if err != nil {
		t.Fatal(err)
	}
	honest := HonestAtEnd(cfgs[0].Schedule, rounds, n)
	if got := spread(decisions, honest); got > 1e-3 {
		t.Errorf("crash run spread %g > ε", got)
	}
}

func TestClusterOverTCP(t *testing.T) {
	const f = 1
	n := mobile.M2Bonnet.RequiredN(f)
	nodes, err := transport.NewTCPMesh(n, []byte("cluster-test-key"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	links := make([]transport.Link, n)
	for i := range links {
		links[i] = nodes[i]
	}
	cfgs := buildConfigs(n, f, mobile.M2Bonnet, RotatingFaults{N: n, F: f}, false, 100, 101)
	decisions, err := RunCluster(context.Background(), cfgs, links)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := cfgs[0].Rounds()
	if err != nil {
		t.Fatal(err)
	}
	honest := HonestAtEnd(cfgs[0].Schedule, rounds, n)
	if got := spread(decisions, honest); got > 1e-3 {
		t.Errorf("TCP cluster spread %g > ε", got)
	}
	for i, nd := range nodes {
		if nd.Counters().AuthFailures != 0 {
			t.Errorf("node %d saw %d auth failures in an honest-transport run", i, nd.Counters().AuthFailures)
		}
	}
}

func TestConfigRounds(t *testing.T) {
	cfg := Config{
		ID: 0, N: 9, F: 2, Model: mobile.M1Garay,
		Algorithm: msr.FTM{}, InputRange: 1, Epsilon: 1e-3,
		RoundTimeout: time.Second, Schedule: NoFaults{},
	}
	r, err := cfg.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if r != 10 { // (1/2)^10 ≈ 9.8e-4
		t.Errorf("Rounds = %d, want 10", r)
	}
	cfg.FixedRounds = 3
	if r, _ := cfg.Rounds(); r != 3 {
		t.Errorf("FixedRounds override = %d", r)
	}
	cfg.FixedRounds = 0
	cfg.Algorithm = msr.Median{}
	if _, err := cfg.Rounds(); err == nil {
		t.Error("Median without FixedRounds should fail")
	}
}

// TestConfigRoundsPinned pins the computed horizon (InputRange 1, ε = 1e-6)
// over M1–M4 × FTA/FTM/Dolev × f ∈ {1, 2} × n ∈ {RequiredN(f),
// RequiredN(f)+2} with lossless and lossy (SyncRounds) rounds. Each row
// lists f=1 then f=2; within an f, n = RequiredN then RequiredN+2; within
// an n, lossless then lossy. -1 marks a horizon the algorithm cannot
// guarantee.
func TestConfigRoundsPinned(t *testing.T) {
	want := map[string][8]int{
		"M1/fta":   {20, 20, 10, 20, 35, 35, 16, 20},
		"M1/ftm":   {20, 20, 20, 20, 20, 20, 20, 20},
		"M1/dolev": {20, 20, 10, 20, 20, 20, 13, 20},
		"M2/fta":   {20, 20, 10, 20, 35, 35, 16, 20},
		"M2/ftm":   {20, 20, 20, 20, 20, 20, 20, 20},
		"M2/dolev": {20, 20, 20, 20, 20, 20, 20, 20},
		"M3/fta":   {35, 35, 16, 20, 62, 62, 25, 25},
		"M3/ftm":   {20, 20, 20, 20, 20, 20, 20, 20},
		"M3/dolev": {20, 20, 13, 20, 20, 20, 20, 20},
		"M4/fta":   {20, 20, 10, 20, 35, 35, 16, 20},
		"M4/ftm":   {20, 20, 20, 20, 20, 20, 20, 20},
		"M4/dolev": {20, 20, 10, 20, 20, 20, 13, 20},
	}
	models := []mobile.Model{mobile.M1Garay, mobile.M2Bonnet, mobile.M3Sasaki, mobile.M4Buhrman}
	algos := []msr.Algorithm{msr.FTA{}, msr.FTM{}, msr.DolevSelect{}}
	for mi, model := range models {
		for _, algo := range algos {
			key := fmt.Sprintf("M%d/%s", mi+1, algo.Name())
			var got [8]int
			i := 0
			for _, f := range []int{1, 2} {
				for _, n := range []int{model.RequiredN(f), model.RequiredN(f) + 2} {
					for _, lossy := range []bool{false, true} {
						cfg := Config{
							ID: 0, N: n, F: f, Model: model,
							Algorithm: algo, InputRange: 1, Epsilon: 1e-6,
							RoundTimeout: time.Second, Schedule: NoFaults{},
							SyncRounds: lossy,
						}
						r, err := cfg.Rounds()
						if err != nil {
							r = -1
						}
						got[i] = r
						i++
					}
				}
			}
			if got != want[key] {
				t.Errorf("%q: %#v,", key, got)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	valid := Config{
		ID: 0, N: 4, F: 1, Model: mobile.M4Buhrman,
		Algorithm: msr.FTM{}, InputRange: 1, Epsilon: 1e-3,
		RoundTimeout: time.Second, Schedule: NoFaults{},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.ID = 9 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.F = -1 },
		func(c *Config) { c.Model = 0 },
		func(c *Config) { c.Algorithm = nil },
		func(c *Config) { c.Epsilon = 0 },
		func(c *Config) { c.InputRange = 0 },
		func(c *Config) { c.RoundTimeout = 0 },
		func(c *Config) { c.Schedule = nil },
	}
	for i, mutate := range bad {
		c := valid
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestConfigValidateBoundAndSchedule covers the resilience bound (a typed
// *mobile.BoundError unless AllowSubBound) and schedule sizing.
func TestConfigValidateBoundAndSchedule(t *testing.T) {
	base := Config{
		ID: 0, N: 9, F: 2, Model: mobile.M1Garay,
		Algorithm: msr.FTM{}, InputRange: 1, Epsilon: 1e-3,
		RoundTimeout: time.Second, Schedule: NoFaults{},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	sub := base
	sub.N, sub.ID = 8, 0 // n = 4f: at the bound
	if err := sub.Validate(); err == nil {
		t.Error("sub-bound deployment accepted without AllowSubBound")
	} else {
		var be *mobile.BoundError
		if !errors.As(err, &be) {
			t.Errorf("sub-bound error %v is not *mobile.BoundError", err)
		} else if !errors.Is(err, mobile.ErrBelowBound) {
			t.Errorf("sub-bound error %v does not wrap ErrBelowBound", err)
		}
	}
	sub.AllowSubBound = true
	if err := sub.Validate(); err != nil {
		t.Errorf("AllowSubBound rejected: %v", err)
	}

	mismatch := base
	mismatch.Schedule = RotatingFaults{N: 5, F: 2} // wrong size
	if err := mismatch.Validate(); err == nil {
		t.Error("mismatched schedule size accepted")
	}

	pp := base
	pp.Schedule = PingPongFaults{N: 9, F: 5} // 2f > n
	if err := pp.Validate(); err == nil {
		t.Error("overlapping ping-pong camps accepted")
	}
}

func TestSchedules(t *testing.T) {
	rot := RotatingFaults{N: 5, F: 2}
	hit := make(map[int]bool)
	for r := 0; r < 5; r++ {
		occ := rot.Occupied(r)
		if len(occ) != 2 {
			t.Fatalf("round %d: %d occupied", r, len(occ))
		}
		for _, id := range occ {
			hit[id] = true
		}
	}
	if len(hit) != 5 {
		t.Errorf("rotation covered %d/5 nodes", len(hit))
	}
	if got := (NoFaults{}).Occupied(3); got != nil {
		t.Errorf("NoFaults occupied %v", got)
	}
	if got := (RotatingFaults{N: 0, F: 1}).Occupied(0); got != nil {
		t.Errorf("degenerate rotation occupied %v", got)
	}
}

func TestHonestAtEnd(t *testing.T) {
	h := HonestAtEnd(RotatingFaults{N: 4, F: 1}, 3, 4)
	// Round 2 occupies node (2*1)%4 = 2.
	want := []bool{true, true, false, true}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("HonestAtEnd[%d] = %v, want %v", i, h[i], want[i])
		}
	}
	for _, v := range HonestAtEnd(RotatingFaults{N: 4, F: 1}, 0, 4) {
		if !v {
			t.Error("zero rounds: everyone honest")
		}
	}
}

func TestRunClusterValidation(t *testing.T) {
	links, closeHub := channelLinks(t, 2)
	defer closeHub()
	if _, err := RunCluster(context.Background(), make([]Config, 3), links); err == nil {
		t.Error("mismatched configs/links accepted")
	}
	if _, err := NewNode(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	valid := buildConfigs(2, 0, mobile.M4Buhrman, NoFaults{}, false, 0, 1)
	if _, err := RunCluster(context.Background(), valid, []transport.Link{links[0], nil}); err == nil {
		t.Error("nil link accepted")
	}
}
