package mbfaa

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"mbfaa/internal/cluster"
	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/multiset"
	"mbfaa/internal/transport"
)

// Deployment-layer vocabulary, aliased from the internal cluster package so
// advanced callers can mix the facade with internal constructors (custom
// fault schedules).
type (
	// ClusterSchedule decides which nodes the mobile agents occupy in each
	// round of a deployment.
	ClusterSchedule = cluster.FaultSchedule
	// NodeStats counts one node's transport-level activity over a run.
	NodeStats = cluster.NodeStats
	// ChaosSpec describes a deterministic fault-injection campaign for a
	// deployment: seeded per-link rates plus round-indexed partition and
	// crash-recover windows. The same seed replays the same fault trace.
	ChaosSpec = transport.ChaosSpec
	// PartitionWindow isolates a node set for a round window [Start, End).
	PartitionWindow = transport.PartitionWindow
	// CrashWindow crashes one node for a round window; End <= 0 means it
	// never recovers.
	CrashWindow = transport.CrashWindow
	// FaultEvent is one injected fault in a deployment's chaos trace.
	FaultEvent = transport.FaultEvent
	// ChaosStats totals the faults a chaos layer injected during a run.
	ChaosStats = transport.ChaosStats
	// RetryPolicy shapes the TCP transport's self-healing reconnects:
	// exponential backoff (Base doubling up to Max, with seeded jitter) and
	// the per-outage retry Budget after which a peer degrades to the down
	// state and its frames become counted drops instead of errors.
	RetryPolicy = transport.RetryPolicy
)

// defaultClusterKey authenticates frames of local demo/test TCP meshes when
// ClusterSpec.Key is unset. It is public by definition — production
// deployments must provision their own shared secret.
var defaultClusterKey = []byte("mbfaa-cluster-development-key")

// ClusterSpec is the serializable description of one distributed deployment
// — the cluster counterpart of Spec. Every protocol-relevant field marshals
// to JSON, with the algorithm and fault schedule selected by name; the
// instance fields (Algorithm, Schedule) are process-local overrides excluded
// from serialization. A ClusterSpec round-tripped through JSON reproduces
// the same deployment as long as it selects by name.
//
// The zero value is not runnable (no inputs); withDefaults fills model M1,
// ε = 1e-6, a 200ms round timeout and the in-memory transport. Every node
// exchanges values with every node: the full mesh of paper §3.
type ClusterSpec struct {
	// Model is the Mobile Byzantine Fault model (M1–M4). Zero means M1.
	Model Model `json:"model,omitempty"`
	// N and F are the node and agent counts. N is inferred from Inputs
	// when unset.
	N int `json:"n,omitempty"`
	F int `json:"f,omitempty"`
	// Inputs are the nodes' initial values; len(Inputs) must equal N.
	Inputs []float64 `json:"inputs,omitempty"`
	// Epsilon is the agreement tolerance ε. Zero means 1e-6.
	Epsilon float64 `json:"epsilon,omitempty"`
	// InputRange is the a-priori spread of correct inputs, from which every
	// node locally computes the round horizon (the Dolev-style halting rule
	// needs no omniscient observer). Zero derives it from the actual spread
	// of Inputs.
	InputRange float64 `json:"input_range,omitempty"`
	// FixedRounds overrides the computed round count when positive. It is
	// required for algorithms without a contraction guarantee (median).
	FixedRounds int `json:"fixed_rounds,omitempty"`
	// RoundTimeout is the receive-phase deadline after which missing
	// senders are treated as omissions. Zero means 200ms.
	RoundTimeout time.Duration `json:"round_timeout,omitempty"`
	// PipelineDepth lets each node run up to this many rounds ahead of the
	// slowest live peer, buffering ahead-of-round frames instead of waiting
	// out every round (see cluster.Config.PipelineDepth). Zero — the default
	// — keeps the strict lockstep rounds the paper specifies, bit-for-bit
	// identical to deployments predating the field. Chaos deployments pin
	// SyncRounds semantics per round index at any depth, so seeded replay
	// holds. Bounded by cluster.MaxPipelineDepth.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// AlgorithmName selects the MSR voting function by registered name
	// ("fta", "ftm", "dolev", "median"). Empty with a nil Algorithm means
	// FTM.
	AlgorithmName string `json:"algorithm,omitempty"`
	// ScheduleName selects the fault schedule: "none" (or empty),
	// "rotating", "pingpong", or "crash" (the rotating schedule with
	// omission behaviour). Rotating/pingpong/crash place F agents per
	// round.
	ScheduleName string `json:"schedule,omitempty"`
	// Transport selects the link layer: "memory" (or empty) for in-process
	// channels, "tcp" for a loopback mesh of HMAC-authenticated sockets.
	Transport string `json:"transport,omitempty"`
	// AllowSubBound deploys below the model's n > bound(f) resilience
	// threshold instead of failing validation — the lower-bound
	// experiments' escape hatch. It also waives the chaos fault-budget
	// check below.
	AllowSubBound bool `json:"allow_sub_bound,omitempty"`
	// Chaos, when non-nil, wraps the transport in a deterministic fault
	// injector driven by this spec. Validation requires the schedule's F
	// plus the spec's conservative per-round fault budget to stay within
	// the model's Table 2 bound, unless AllowSubBound opts out — injected
	// faults consume the same resilience the mobile agents do. With no
	// FixedRounds, the run horizon is stretched to absorb the injected
	// loss rate and heal windows.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Retry, when non-nil, overrides the TCP transport's self-healing
	// reconnect policy (transport.DefaultRetryPolicy otherwise; zero fields
	// inherit its values). Keep Base well below RoundTimeout so a healed
	// connection's retransmits still land inside their round — the
	// determinism caveat for connection chaos. Ignored by the in-memory
	// transport.
	Retry *RetryPolicy `json:"retry,omitempty"`
	// RunHorizon overrides the watchdog deadline after which Run gives up
	// on unresponsive nodes and returns a *NodeDownError. Zero derives it
	// from the round count and RoundTimeout.
	RunHorizon time.Duration `json:"run_horizon,omitempty"`

	// Key authenticates TCP frames (all nodes must share it). Unset uses a
	// well-known development key suitable only for local meshes. Not
	// serialized: secrets do not belong in stored specs.
	Key []byte `json:"-"`
	// Algorithm, when non-nil, overrides AlgorithmName with a concrete
	// voting function. Not serialized.
	Algorithm Algorithm `json:"-"`
	// Schedule, when non-nil, overrides ScheduleName with a concrete fault
	// schedule (implement ClusterSchedule for custom attacks). Not
	// serialized.
	Schedule ClusterSchedule `json:"-"`
}

// withDefaults fills the zero-value fields the library defaults cover.
func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Model == 0 {
		s.Model = M1
	}
	if s.Epsilon == 0 {
		s.Epsilon = 1e-6
	}
	if s.N == 0 {
		s.N = len(s.Inputs)
	}
	if s.RoundTimeout == 0 {
		s.RoundTimeout = 200 * time.Millisecond
	}
	if s.InputRange == 0 && len(s.Inputs) > 0 {
		s.InputRange = inputSpread(s.Inputs)
	}
	if len(s.Key) == 0 {
		s.Key = defaultClusterKey
	}
	return s
}

// Validate checks the spec eagerly, before any goroutine starts or socket
// opens, and reports failures as *ConfigError values wrapping ErrSpec.
// Unlike the simulation Spec — where sub-bound systems stay legal for the
// lower-bound experiments — a deployment at or below the model's Table 2
// replica bound is rejected with the same typed *BoundError CheckSystem
// returns (errors.Is(err, ErrBelowBound)), unless AllowSubBound opts in: an
// under-provisioned cluster would not fail loudly at runtime, it would
// silently diverge.
func (s ClusterSpec) Validate() error {
	s = s.withDefaults()
	switch {
	case !s.Model.Valid():
		return configErrorf("Model", "unknown model %d", int(s.Model))
	case s.N <= 0:
		return configErrorf("N", "n=%d must be positive (set N or infer it via Inputs)", s.N)
	case s.F < 0:
		return configErrorf("F", "f=%d must be non-negative", s.F)
	case len(s.Inputs) != s.N:
		return configErrorf("Inputs", "%d inputs for n=%d nodes; they must agree", len(s.Inputs), s.N)
	case s.Epsilon <= 0 || math.IsNaN(s.Epsilon):
		return configErrorf("Epsilon", "epsilon %v must be positive", s.Epsilon)
	case s.InputRange < 0 || math.IsNaN(s.InputRange) || math.IsInf(s.InputRange, 0):
		return configErrorf("InputRange", "input range %v must be a positive finite spread", s.InputRange)
	case s.FixedRounds < 0:
		return configErrorf("FixedRounds", "negative fixed round count %d", s.FixedRounds)
	case s.RoundTimeout <= 0:
		return configErrorf("RoundTimeout", "round timeout %v must be positive", s.RoundTimeout)
	case s.PipelineDepth < 0 || s.PipelineDepth > cluster.MaxPipelineDepth:
		return configErrorf("PipelineDepth", "pipeline depth %d out of range [0, %d]", s.PipelineDepth, cluster.MaxPipelineDepth)
	case s.RunHorizon < 0:
		return configErrorf("RunHorizon", "run horizon %v must be non-negative", s.RunHorizon)
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(s.N); err != nil {
			return configErrorf("Chaos", "%v", err)
		}
		if s.Chaos.LatencyMax > s.RoundTimeout/2 {
			return configErrorf("Chaos",
				"latency_max %v exceeds half the %v round timeout; delayed frames would race every deadline",
				s.Chaos.LatencyMax, s.RoundTimeout)
		}
		if !s.AllowSubBound && s.Chaos.Active() {
			// Injected faults spend the same resilience the mobile agents
			// do: budget the expected per-round losses against the model
			// bound on top of the schedule's F.
			if budget := s.Chaos.FaultBudget(s.N); budget > 0 {
				if err := mobile.CheckSystem(s.Model, s.N, s.F+budget); err != nil {
					return fmt.Errorf("chaos fault budget %d on top of f=%d: %w (lower the rates or set AllowSubBound)",
						budget, s.F, err)
				}
			}
		}
	}
	if s.Retry != nil {
		if err := s.Retry.Validate(); err != nil {
			return configErrorf("Retry", "%v", err)
		}
		if base := s.Retry.Base; base > s.RoundTimeout/2 {
			return configErrorf("Retry",
				"backoff base %v exceeds half the %v round timeout; a healed connection's retransmits would miss their round",
				base, s.RoundTimeout)
		}
	}
	for i, v := range s.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return configErrorf("Inputs", "input %d is %v", i, v)
		}
	}
	if !s.AllowSubBound {
		if err := mobile.CheckSystem(s.Model, s.N, s.F); err != nil {
			return err
		}
	}
	if s.Algorithm == nil && s.AlgorithmName != "" {
		if _, err := msr.ByName(s.AlgorithmName); err != nil {
			return configErrorf("AlgorithmName", "%v", err)
		}
	}
	sched, _, err := s.schedule()
	if err != nil {
		return err
	}
	if sized, ok := sched.(cluster.SizedSchedule); ok {
		if err := sized.ValidateFor(s.N); err != nil {
			return configErrorf("ScheduleName", "%v", err)
		}
	}
	switch s.Transport {
	case "", "memory", "tcp":
	default:
		return configErrorf("Transport", "unknown transport %q (have memory, tcp)", s.Transport)
	}
	return nil
}

// schedule resolves the fault schedule and whether occupied nodes omit
// (crash) rather than lie.
func (s ClusterSpec) schedule() (ClusterSchedule, bool, error) {
	if s.Schedule != nil {
		return s.Schedule, false, nil
	}
	switch s.ScheduleName {
	case "", "none":
		return cluster.NoFaults{}, false, nil
	case "rotating":
		return cluster.RotatingFaults{N: s.N, F: s.F}, false, nil
	case "pingpong":
		return cluster.PingPongFaults{N: s.N, F: s.F}, false, nil
	case "crash":
		return cluster.CrashFaults{N: s.N, F: s.F}, true, nil
	default:
		return nil, false, configErrorf("ScheduleName",
			"unknown schedule %q (have none, rotating, pingpong, crash)", s.ScheduleName)
	}
}

// configs compiles the spec into one cluster.Config per node.
func (s ClusterSpec) configs() ([]cluster.Config, error) {
	algo := s.Algorithm
	if algo == nil {
		name := s.AlgorithmName
		if name == "" {
			name = "ftm"
		}
		var err error
		algo, err = msr.ByName(name)
		if err != nil {
			return nil, configErrorf("AlgorithmName", "%v", err)
		}
	}
	sched, crash, err := s.schedule()
	if err != nil {
		return nil, err
	}
	cfgs := make([]cluster.Config, s.N)
	for i := range cfgs {
		cfgs[i] = cluster.Config{
			ID:            i,
			N:             s.N,
			F:             s.F,
			Model:         s.Model,
			Algorithm:     algo,
			Input:         s.Inputs[i],
			InputRange:    s.InputRange,
			Epsilon:       s.Epsilon,
			RoundTimeout:  s.RoundTimeout,
			Schedule:      sched,
			AllowSubBound: s.AllowSubBound,
			Crash:         crash,
			FixedRounds:   s.FixedRounds,
			PipelineDepth: s.PipelineDepth,
			// Fixed-duration rounds keep the cluster on one shared round
			// clock under injected faults, making per-node stat
			// attribution replayable, and floor the horizon's contraction
			// for the lossy links (see cluster.Config.SyncRounds).
			SyncRounds: s.Chaos.Active(),
		}
	}
	return cfgs, nil
}

// Deploy validates the spec, resolves its schedule, opens the links
// (in-memory channels or a loopback TCP mesh with HMAC-authenticated
// frames) and returns a Deployment ready to Run. Spec validation failures
// surface as *ConfigError values wrapping ErrSpec (or a *BoundError for
// under-provisioned systems) before any resource is acquired; a failed
// round-horizon computation (e.g. median without FixedRounds) is also
// caught here. The caller owns the Deployment and must Close it (Run does
// not).
func (e *Engine) Deploy(spec ClusterSpec) (*Deployment, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfgs, err := spec.configs()
	if err != nil {
		return nil, err
	}
	// The per-node config re-checks everything the nodes will check (the
	// instance-override fields included), so a deployment can never fail
	// validation after its sockets are open.
	if err := cfgs[0].Validate(); err != nil {
		return nil, err
	}
	rounds, err := cfgs[0].Rounds()
	if err != nil {
		return nil, configErrorf("FixedRounds", "%v", err)
	}
	// Pin the (possibly chaos-stretched) horizon into every node's config
	// so the cluster halts in lockstep.
	rounds = chaosRounds(rounds, spec.FixedRounds, spec.Chaos)
	for i := range cfgs {
		cfgs[i].FixedRounds = rounds
	}
	// Inboxes buffer several rounds of skew — plus two frames per peer per
	// pipelined round, since a node may legitimately run PipelineDepth
	// rounds ahead of a slow receiver; nodes drain their inbox continuously
	// while waiting for the deadline, so this never backs up in practice.
	links, tcp, closeMesh, err := openMesh(spec, 8+2*spec.PipelineDepth)
	if err != nil {
		return nil, err
	}
	d := &Deployment{spec: spec, cfgs: cfgs, links: links, rounds: rounds, closer: closeMesh}
	if spec.Chaos != nil {
		// One shared injector in front of every node's link: faults are
		// decided before frames reach the hub or the sockets, so the same
		// spec drives both transports identically.
		chaos, err := transport.NewChaos(spec.N, *spec.Chaos)
		if err != nil {
			_ = closeMesh()
			return nil, err
		}
		for i := range links {
			if tcp != nil {
				// The chaos layer doubles as each TCP node's dial-fault
				// oracle, so connection faults replay from the same master
				// seed as frame faults.
				tcp[i].SetDialFaults(chaos)
			}
			links[i] = chaos.WrapLink(links[i], i)
		}
		d.chaos = chaos
		d.closer = func() error {
			err := chaos.Close() // flush hold-backs into the live mesh first
			if merr := closeMesh(); err == nil {
				err = merr
			}
			return err
		}
	}
	return d, nil
}

// openMesh opens the link layer spec runs over, as Deploy and Serve both
// do: an in-memory hub whose inboxes buffer memRounds frames per node, or a
// loopback TCP mesh of HMAC-authenticated nodes with replay windows widened
// for pipelining and spec.Retry installed. It returns one link per node,
// the TCP nodes beneath them (nil on the memory transport) and one closer
// releasing all of it.
func openMesh(spec ClusterSpec, memRounds int) ([]transport.Link, []*transport.TCPNode, func() error, error) {
	links := make([]transport.Link, spec.N)
	if spec.Transport != "tcp" {
		hub, err := transport.NewChannel(spec.N, memRounds)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range links {
			links[i] = hub.Link(i)
		}
		return links, nil, hub.Close, nil
	}
	nodes, err := transport.NewTCPMesh(spec.N, spec.Key)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, nd := range nodes {
		if spec.PipelineDepth > 0 {
			// Pipelined senders legitimately put PipelineDepth rounds in
			// flight per flow; widen each node's replay filter so
			// ahead-of-round frames are not mistaken for replays.
			nd.SetReplayWindow(spec.PipelineDepth + 4)
		}
		if spec.Retry != nil {
			nd.SetRetryPolicy(*spec.Retry)
		}
		links[i] = nd
	}
	closeMesh := func() error {
		var first error
		for _, nd := range nodes {
			if err := nd.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return links, nodes, closeMesh, nil
}

// chaosRounds stretches a contraction-derived round count for an active
// chaos campaign, as Deploy and every Service instance do: injected loss
// slows contraction, and heal-bounded windows stall whole rounds. A
// FixedRounds override, or no active chaos, keeps rounds as computed.
func chaosRounds(rounds, fixedRounds int, chaos *ChaosSpec) int {
	if !chaos.Active() || fixedRounds != 0 {
		return rounds
	}
	return int(math.Ceil(float64(rounds)*(1+2*(chaos.DropRate+chaos.CorruptRate)))) + chaos.HealSpan()
}

// watchdogHorizon is the deadline guarding a run of rounds: override when
// set, otherwise one deadline per round plus two rounds of slack for
// startup skew (TCP dials) and the final drain, plus two seconds.
func watchdogHorizon(override time.Duration, rounds int, roundTimeout time.Duration) time.Duration {
	if override > 0 {
		return override
	}
	return time.Duration(rounds+2)*roundTimeout + 2*time.Second
}

// inputSpread is the a-priori input range derived from the inputs
// themselves when none is pinned; identical inputs give 1.
func inputSpread(inputs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range inputs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi > lo {
		return hi - lo
	}
	return 1 // degenerate: identical inputs
}

// Deployment is a wired-up cluster: n nodes over links, ready to execute
// one run. It is single-use — Run consumes the nodes' protocol state — and
// must be Closed to release links (sockets on the TCP transport).
type Deployment struct {
	spec   ClusterSpec
	cfgs   []cluster.Config
	links  []transport.Link
	chaos  *transport.Chaos // nil without a ChaosSpec
	rounds int
	ran    bool
	closed bool
	closer func() error
}

// Rounds returns the round horizon every node computed locally.
func (d *Deployment) Rounds() int { return d.rounds }

// Spec returns the defaulted spec the deployment was built from.
func (d *Deployment) Spec() ClusterSpec { return d.spec }

// FaultTrace returns the chaos layer's injected-fault trace so far: every
// directed link's events in (from, to, message-index) order. For the same
// ChaosSpec seed and message sequence the trace is bit-for-bit identical
// across runs — the replay contract. Nil without a ChaosSpec.
func (d *Deployment) FaultTrace() []FaultEvent {
	if d.chaos == nil {
		return nil
	}
	return d.chaos.Trace()
}

// Coalescing totals the socket coalescing counters across the deployment's
// links: how many protocol frames left in how many socket writes. Zero/zero
// on the in-memory hub, which has no sockets; a chaos wrapper reports the
// TCP counts beneath it. A node's frames to itself never reach a socket and
// count in neither total.
func (d *Deployment) Coalescing() (frames, writes int64) {
	for _, link := range d.links {
		c := link.Counters()
		frames += c.FramesSent
		writes += c.BatchWrites
	}
	return frames, writes
}

// Horizon returns the watchdog deadline Run enforces: RunHorizon when set,
// otherwise derived from the round count, the round timeout and the chaos
// latency budget.
func (d *Deployment) Horizon() time.Duration {
	return watchdogHorizon(d.spec.RunHorizon, d.rounds, d.spec.RoundTimeout)
}

// Close releases the deployment's links. Safe to call more than once.
func (d *Deployment) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if d.closer == nil {
		return nil
	}
	return d.closer()
}

// Run executes the deployment: every node runs the protocol concurrently
// over real message passing and the harness assembles their decisions into
// a ClusterResult carrying the same Result shape as the core engine.
// Cancelling the context aborts every node at its next receive or round
// boundary. A Deployment runs once; a second Run returns an error.
//
// A watchdog guards the whole run (see Horizon): if any node fails to
// finish inside it — crashed past its recovery window, wedged in its
// transport — Run returns a *NodeDownError naming the down nodes, with the
// surviving nodes' partial ClusterResult attached, instead of hanging.
//
// Unlike the simulator, a deployment is NOT bit-deterministic:
// message arrival order and deadline races are real. The Result's verdict
// fields (Converged, DecisionDiameter, Valid) are the comparable surface —
// see the README's determinism caveats. Under a ChaosSpec the *injected
// fault trace* is nonetheless bit-for-bit reproducible from the seed
// (FaultTrace), and with latency well under the round deadline the verdict
// surface replays too.
func (d *Deployment) Run(ctx context.Context) (*ClusterResult, error) {
	if d.ran {
		return nil, configErrorf("Deployment", "deployment already ran; Deploy a fresh one")
	}
	if d.closed {
		return nil, configErrorf("Deployment", "deployment is closed")
	}
	d.ran = true
	start := time.Now()
	horizon := d.Horizon()
	outcomes, down, err := cluster.RunClusterDeadline(ctx, d.cfgs, d.links, horizon)
	if err != nil {
		return nil, err
	}
	res := buildClusterResult(d.spec.Inputs, d.spec.Epsilon, d.cfgs[0].Schedule,
		d.spec.Chaos, d.rounds, outcomes, down, time.Since(start))
	if d.chaos != nil {
		cs := d.chaos.Stats()
		res.Chaos = &cs
	}
	if len(down) > 0 {
		return nil, &NodeDownError{Nodes: down, Horizon: horizon, Partial: res}
	}
	return res, nil
}

// buildClusterResult assembles the omniscient-harness verdict over one run's
// per-node outcomes: which decisions count (schedule-honest at the end,
// minus down nodes and chaos-crashed nodes), the initially-correct input
// range (the Validity baseline), and the honest decision spread. Shared by
// Deployment.Run and the Service's per-instance runner so both layers
// produce bit-identical verdicts from identical outcomes.
func buildClusterResult(inputs []float64, epsilon float64, sched ClusterSchedule,
	chaosSpec *ChaosSpec, rounds int, outcomes []cluster.Outcome, down []int,
	elapsed time.Duration) *ClusterResult {

	n := len(inputs)
	honest := cluster.HonestAtEnd(sched, rounds, n)
	// Nodes that never reached a decision don't get one attributed: down
	// nodes, and nodes the chaos layer still holds crashed in the decision
	// round.
	for _, id := range down {
		honest[id] = false
	}
	if chaosSpec != nil {
		for id := 0; id < n; id++ {
			if chaosSpec.CrashedAt(id, rounds-1) {
				honest[id] = false
			}
		}
	}
	votes := make([]float64, n)
	stats := make([]NodeStats, n)
	var messages int64
	for i, o := range outcomes {
		votes[i] = o.Value
		stats[i] = o.Stats
		messages += o.Stats.Sent
	}

	// The harness — not any node — knows the schedule, so it can compute
	// the omniscient-observer quantities the simulator reports: the
	// initially-correct input range (Validity baseline) and the honest
	// decision spread.
	initial := multiset.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	occupied0 := sched.Occupied(0)
	for i, v := range inputs {
		if slices.Contains(occupied0, i) {
			continue
		}
		initial.Lo = math.Min(initial.Lo, v)
		initial.Hi = math.Max(initial.Hi, v)
	}
	finalLo, finalHi := math.Inf(1), math.Inf(-1)
	decidedCount := 0
	for i, v := range votes {
		if !honest[i] {
			continue
		}
		finalLo = math.Min(finalLo, v)
		finalHi = math.Max(finalHi, v)
		decidedCount++
	}
	finalDiam := 0.0
	if decidedCount > 1 {
		finalDiam = finalHi - finalLo
	}

	return &ClusterResult{
		Result: Result{
			Rounds:              rounds,
			Converged:           finalDiam <= epsilon,
			Votes:               votes,
			Decided:             honest,
			InitialCorrectRange: initial,
			// No omniscient observer: only the endpoints of the diameter
			// trajectory are known to the harness.
			DiameterSeries: []float64{initial.Width(), finalDiam},
		},
		Stats:    stats,
		Elapsed:  elapsed,
		Messages: messages,
	}
}

// ClusterResult is a deployment's outcome: the core engine's Result shape
// (verdict fields computed by the omniscient harness) plus the per-node
// transport counters and wall-clock throughput a distributed run uniquely
// has.
type ClusterResult struct {
	Result
	// Stats are the per-node transport counters, indexed by node id.
	Stats []NodeStats
	// Chaos totals the faults the chaos layer injected during the run; nil
	// when the deployment ran without a ChaosSpec.
	Chaos *ChaosStats
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Messages is the total number of protocol messages sent.
	Messages int64
}

// RoundsPerSecond returns the deployment's round throughput.
func (r *ClusterResult) RoundsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Rounds) / r.Elapsed.Seconds()
}

// MessagesPerSecond returns the deployment's message throughput.
func (r *ClusterResult) MessagesPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Messages) / r.Elapsed.Seconds()
}
