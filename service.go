package mbfaa

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mbfaa/internal/cluster"
	"mbfaa/internal/service"
	"mbfaa/internal/transport"
)

// ServiceSpec describes a long-lived agreement service: one transport mesh
// of N nodes hosting many concurrent protocol instances. It is the
// ClusterSpec shape minus the per-run Inputs (each Submit supplies its own)
// plus the service's concurrency bound. Like ClusterSpec it serializes to
// JSON with algorithm and schedule selected by name; the instance override
// fields are process-local and excluded.
type ServiceSpec struct {
	// Model is the Mobile Byzantine Fault model (M1–M4). Zero means M1.
	Model Model `json:"model,omitempty"`
	// N and F are the node and agent counts. N must be set — a service has
	// no Inputs to infer it from.
	N int `json:"n,omitempty"`
	F int `json:"f,omitempty"`
	// Epsilon is the agreement tolerance ε. Zero means 1e-6.
	Epsilon float64 `json:"epsilon,omitempty"`
	// InputRange pins the a-priori input spread every instance computes its
	// round horizon from. Zero derives it per instance from the submitted
	// inputs (instances may then run different round counts).
	InputRange float64 `json:"input_range,omitempty"`
	// FixedRounds overrides the computed round count when positive; required
	// for algorithms without a contraction guarantee (median).
	FixedRounds int `json:"fixed_rounds,omitempty"`
	// RoundTimeout is the receive-phase deadline. Zero means 200ms.
	RoundTimeout time.Duration `json:"round_timeout,omitempty"`
	// PipelineDepth lets every instance's nodes run up to this many rounds
	// ahead of their slowest live peer (see ClusterSpec.PipelineDepth). Zero
	// keeps strict lockstep. Pipelined instances put more frames in flight,
	// multiplying the cross-instance coalescing opportunity on the TCP
	// transport.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// AlgorithmName selects the MSR voting function by registered name.
	AlgorithmName string `json:"algorithm,omitempty"`
	// ScheduleName selects the fault schedule (see ClusterSpec).
	ScheduleName string `json:"schedule,omitempty"`
	// Transport selects the link layer: "memory" (or empty) or "tcp".
	Transport string `json:"transport,omitempty"`
	// AllowSubBound deploys below the model's replica bound (see
	// ClusterSpec).
	AllowSubBound bool `json:"allow_sub_bound,omitempty"`
	// MaxConcurrent bounds the instances in flight at once; Submit blocks
	// (backpressure) while the service is saturated. Zero means 64.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Chaos, when non-nil, is the fault-injection template: every instance
	// gets its own injector with the seed derived from this seed and the
	// instance id, so a service run is replayable instance by instance.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Retry overrides the TCP transport's reconnect policy (see
	// ClusterSpec.Retry). Ignored by the memory transport.
	Retry *RetryPolicy `json:"retry,omitempty"`
	// RunHorizon overrides the per-instance watchdog deadline. Zero derives
	// it from the instance's round count and RoundTimeout.
	RunHorizon time.Duration `json:"run_horizon,omitempty"`

	// Key authenticates TCP frames. Not serialized.
	Key []byte `json:"-"`
	// Algorithm overrides AlgorithmName with a concrete voting function.
	// Not serialized.
	Algorithm Algorithm `json:"-"`
	// Schedule overrides ScheduleName with a concrete fault schedule. Not
	// serialized.
	Schedule ClusterSchedule `json:"-"`
}

// clusterSpec projects the service spec onto the ClusterSpec machinery with
// placeholder inputs, reusing its validation, schedule resolution and
// per-node config compilation. Instances overwrite Input/InputRange/
// FixedRounds per run.
func (s ServiceSpec) clusterSpec() ClusterSpec {
	return ClusterSpec{
		Model:         s.Model,
		N:             s.N,
		F:             s.F,
		Inputs:        make([]float64, s.N),
		Epsilon:       s.Epsilon,
		InputRange:    s.InputRange,
		FixedRounds:   s.FixedRounds,
		RoundTimeout:  s.RoundTimeout,
		PipelineDepth: s.PipelineDepth,
		AlgorithmName: s.AlgorithmName,
		ScheduleName:  s.ScheduleName,
		Transport:     s.Transport,
		AllowSubBound: s.AllowSubBound,
		Chaos:         s.Chaos,
		Retry:         s.Retry,
		RunHorizon:    s.RunHorizon,
		Key:           s.Key,
		Algorithm:     s.Algorithm,
		Schedule:      s.Schedule,
	}
}

// Handle identifies one submitted instance. Await (or the Results stream)
// yields its outcome; Done is closed when the instance finishes.
type Handle struct {
	id uint32

	// done is made by the first Done call while the instance runs, so an
	// instance nobody waits on allocates no channel; finished is set once
	// res, trace and err are final.
	mu       sync.Mutex
	done     chan struct{}
	finished bool

	res   *ClusterResult
	trace []FaultEvent
	err   error
}

// ID returns the instance id the handle was submitted under.
func (h *Handle) ID() uint32 { return h.id }

// Done returns a channel closed when the instance has finished (select on
// it alongside other events; Await wraps it).
func (h *Handle) Done() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.finished:
		return closedDone
	case h.done == nil:
		h.done = make(chan struct{})
	}
	return h.done
}

// closedDone is the Done channel of a handle that finished before anyone
// asked for one.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// InstanceResult is one finished instance on the Results stream.
type InstanceResult struct {
	// ID is the instance id it was submitted under.
	ID uint32
	// Result is the instance's verdict — the same shape Deployment.Run
	// produces. Non-nil even when Err is a *NodeDownError (the partial).
	Result *ClusterResult
	// Trace is the instance's injected-fault trace (nil without chaos).
	Trace []FaultEvent
	// Err is the instance's failure, if any.
	Err error
}

// ServiceStats is a snapshot of a service's lifetime counters.
type ServiceStats struct {
	// Submitted, Completed and Failed count instances; Completed+Failed
	// lags Submitted by the instances still in flight.
	Submitted, Completed, Failed int64
	// Frames counts protocol messages the dispatch loops handed to the mesh
	// links; Flushes counts the SendBatch calls that carried them: one per
	// loop pass that had sends, plus one per send of a chaos-wrapped
	// instance. Frames/Flushes is the cross-instance coalescing factor.
	Frames, Flushes int64
	// Unrouted and Stale count inbound frames the dispatch loops dropped:
	// no live instance, or a retired incarnation's epoch. InboxDrops counts
	// frames the mesh links dropped on a full node inbox (the in-memory
	// hub; zero on TCP, whose readers wait for the loop instead).
	Unrouted, Stale, InboxDrops int64
	// SocketFrames and SocketWrites are the TCP mesh totals (zero on the
	// memory transport): frames sent and the socket writes carrying them.
	// A node's frames to itself never reach a socket and count in neither.
	SocketFrames, SocketWrites int64
}

// FramesPerFlush returns the cross-instance coalescing factor of the
// dispatch loops (0 when nothing was flushed).
func (s ServiceStats) FramesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Flushes)
}

// FramesPerWrite returns the socket-level coalescing factor on the TCP
// transport (0 on memory, where no socket exists).
func (s ServiceStats) FramesPerWrite() float64 {
	if s.SocketWrites == 0 {
		return 0
	}
	return float64(s.SocketFrames) / float64(s.SocketWrites)
}

// Service hosts many concurrent agreement instances over one transport
// mesh. Each Submit runs the full n-node protocol for one set of inputs,
// multiplexed by instance id over the mesh's links on one dispatch loop per
// mesh node: the loops route inbound frames to the hosted nodes' step
// machines and merge the sends of every instance into shared writes. Protocol
// state (node sets with their kernel scratch) is pooled across instances.
// Safe for concurrent use.
type Service struct {
	spec  ServiceSpec
	n     int
	cfgs  []cluster.Config // template: Input/InputRange/FixedRounds overwritten per instance
	sched ClusterSchedule

	mesh   []transport.Link // the mesh nodes' links, owned by group's loops
	group  *service.Group
	closer func() error

	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}
	pool   sync.Pool // *instance

	// results is the Results stream; backlog parks the completions a full
	// stream cannot take yet, for the publisher goroutine to send, so no
	// dispatch loop ever blocks on a slow consumer.
	results    chan InstanceResult
	subscribed atomic.Bool
	backlog    chan InstanceResult
	published  chan struct{} // closed when the publisher exits

	mu       sync.Mutex
	active   map[uint32]*Handle
	closed   bool
	inflight sync.WaitGroup

	submitted, completed, failed atomic.Int64
}

// instance is one submitted agreement instance: the job hosting its nodes
// on the dispatch loops, and what its verdict needs. Instances are pooled
// with their nodes, recycled via Node.Reset.
type instance struct {
	job       service.Job
	nodes     []*cluster.Node
	h         *Handle
	inputs    []float64
	rounds    int
	chaos     *transport.Chaos
	chaosSpec *ChaosSpec
	start     time.Time
}

// Serve validates the spec, opens the mesh (in-memory channels or a loopback
// TCP mesh) and returns a Service accepting Submits. Validation failures
// surface as *ConfigError values wrapping ErrSpec before any resource is
// acquired. The caller owns the Service and must Close it. Cancelling ctx
// aborts every in-flight instance and fails later Submits.
func (e *Engine) Serve(ctx context.Context, spec ServiceSpec) (*Service, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.N <= 0 {
		return nil, configErrorf("N", "n=%d must be positive (a service cannot infer it from inputs)", spec.N)
	}
	if spec.MaxConcurrent < 0 {
		return nil, configErrorf("MaxConcurrent", "negative concurrency bound %d", spec.MaxConcurrent)
	}
	if spec.MaxConcurrent == 0 {
		spec.MaxConcurrent = 64
	}
	cs := spec.clusterSpec().withDefaults()
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	cfgs, err := cs.configs()
	if err != nil {
		return nil, err
	}
	if err := cfgs[0].Validate(); err != nil {
		return nil, err
	}
	// Prove the horizon computable now (median without FixedRounds must fail
	// at Serve, not per Submit). With InputRange unset the placeholder range
	// 1 stands in; per-instance ranges only change the count, not
	// feasibility.
	if _, err := cfgs[0].Rounds(); err != nil {
		return nil, configErrorf("FixedRounds", "%v", err)
	}
	// Carry the resolved defaults the per-instance path needs.
	spec.Model, spec.Epsilon, spec.RoundTimeout = cs.Model, cs.Epsilon, cs.RoundTimeout
	spec.Key = cs.Key

	// Every node's inbox is shared by all hosted instances until its
	// dispatch loop routes the frames; lockstep bounds each instance to
	// about two rounds in flight (plus PipelineDepth more when pipelined),
	// so the memory hub is sized for the concurrency cap.
	links, _, closer, err := openMesh(cs, (2+spec.PipelineDepth)*spec.MaxConcurrent+8)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Service{
		spec:      spec,
		n:         cs.N,
		cfgs:      cfgs,
		sched:     cfgs[0].Schedule,
		mesh:      links,
		group:     service.NewGroup(sctx, links),
		closer:    closer,
		ctx:       sctx,
		cancel:    cancel,
		slots:     make(chan struct{}, spec.MaxConcurrent),
		results:   make(chan InstanceResult, spec.MaxConcurrent),
		backlog:   make(chan InstanceResult, spec.MaxConcurrent),
		published: make(chan struct{}),
		active:    make(map[uint32]*Handle),
	}
	go s.publish()
	return s, nil
}

// N returns the mesh size every instance runs on.
func (s *Service) N() int { return s.n }

// Submit starts one agreement instance over the submitted inputs (one per
// node) and returns its handle. It blocks while MaxConcurrent instances are
// in flight — backpressure, released as instances finish — until ctx is
// cancelled or the service closes. The instance id must not collide with a
// currently-active one; finished ids may be reused.
func (s *Service) Submit(ctx context.Context, id uint32, inputs []float64) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(inputs) != s.n {
		return nil, configErrorf("Inputs", "%d inputs for n=%d nodes; they must agree", len(inputs), s.n)
	}
	for i, v := range inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, configErrorf("Inputs", "input %d is %v", i, v)
		}
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, ErrServiceClosed
	}
	// The select races a free slot against a dead service; re-check the
	// service side so a cancelled serve context always wins.
	if s.ctx.Err() != nil {
		<-s.slots
		return nil, ErrServiceClosed
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.slots
		return nil, ErrServiceClosed
	}
	if _, dup := s.active[id]; dup {
		s.mu.Unlock()
		<-s.slots
		return nil, configErrorf("InstanceID", "instance %d is already active", id)
	}
	h := &Handle{id: id}
	s.active[id] = h
	s.inflight.Add(1)
	s.mu.Unlock()
	s.submitted.Add(1)
	if err := s.host(h, append([]float64(nil), inputs...)); err != nil {
		s.complete(h, nil, nil, err)
	}
	return h, nil
}

// Await blocks until the handle's instance finishes and returns its result,
// or ctx expires. The instance keeps running on a ctx timeout — Await again
// or use the Results stream.
func (s *Service) Await(ctx context.Context, h *Handle) (*ClusterResult, error) {
	if h == nil {
		return nil, configErrorf("Handle", "nil handle")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.Done():
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Results returns the stream of finished instances. First call subscribes:
// from then on every completion is sent to the channel and the consumer must
// drain it (completions wait on a full buffer, eventually stalling slot
// release). The channel is closed by Close after the last in-flight
// instance. Without a Results call, completions are delivered through
// handles only.
func (s *Service) Results() <-chan InstanceResult {
	s.subscribed.Store(true)
	return s.results
}

// Stats returns a snapshot of the service's lifetime counters.
func (s *Service) Stats() ServiceStats {
	g := s.group.Stats()
	st := ServiceStats{
		Submitted: s.submitted.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Frames:    g.Frames,
		Flushes:   g.Flushes,
		Unrouted:  g.Unrouted,
		Stale:     g.Stale,
	}
	for _, l := range s.mesh {
		c := l.Counters()
		st.InboxDrops += c.Overflow
		st.SocketFrames += c.FramesSent
		st.SocketWrites += c.BatchWrites
	}
	return st
}

// Close stops accepting Submits, waits out the in-flight instances, closes
// the Results stream and releases the mesh. In-flight instances run to
// completion; to abort them instead, cancel the Serve context first. Safe to
// call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	close(s.backlog)
	<-s.published
	if s.subscribed.Load() {
		close(s.results)
	}
	err := s.closer()
	s.group.Join()
	s.cancel()
	return err
}

// roundsFor resolves the round horizon for one instance's input range,
// applying the same chaos stretch Deploy applies.
func (s *Service) roundsFor(inputRange float64) (int, error) {
	cfg := s.cfgs[0]
	cfg.InputRange = inputRange
	rounds, err := cfg.Rounds()
	if err != nil {
		return 0, configErrorf("FixedRounds", "%v", err)
	}
	return chaosRounds(rounds, s.spec.FixedRounds, s.spec.Chaos), nil
}

// instance builds or recycles the protocol state of one instance: its
// node set, reset for the inputs, and the job hosting it.
func (s *Service) instance(h *Handle, inputs []float64, inputRange float64, rounds int) (*instance, error) {
	inst, _ := s.pool.Get().(*instance)
	if inst != nil {
		for i, nd := range inst.nodes {
			nd.Reset(inputs[i], inputRange, rounds)
		}
	} else {
		inst = &instance{nodes: make([]*cluster.Node, s.n)}
		machines := make([]service.Machine, s.n)
		for i := range inst.nodes {
			cfg := s.cfgs[i]
			cfg.Input, cfg.InputRange, cfg.FixedRounds = inputs[i], inputRange, rounds
			nd, err := cluster.NewNode(cfg)
			if err != nil {
				return nil, err
			}
			inst.nodes[i], machines[i] = nd, nd
		}
		inst.job = service.Job{Machines: machines, Timeout: s.spec.RoundTimeout, Exit: func(_ int, last bool) {
			if last {
				s.finish(inst)
			}
		}}
	}
	inst.h, inst.inputs, inst.rounds = h, inputs, rounds
	inst.job.ID, inst.job.Links = h.id, nil
	inst.job.Horizon = watchdogHorizon(s.spec.RunHorizon, rounds, s.spec.RoundTimeout)
	inst.chaos, inst.chaosSpec = nil, nil
	return inst, nil
}

// host sets one instance up — under a ChaosSpec with its own injector in
// front of every node's sends — and hosts it on the dispatch loops.
func (s *Service) host(h *Handle, inputs []float64) error {
	inputRange := s.spec.InputRange
	if inputRange == 0 {
		inputRange = inputSpread(inputs)
	}
	rounds, err := s.roundsFor(inputRange)
	if err != nil {
		return err
	}
	inst, err := s.instance(h, inputs, inputRange, rounds)
	if err != nil {
		return err
	}
	if s.spec.Chaos != nil {
		// Each instance gets its own injector, seeded from the template seed
		// and the instance id: the fault trace of instance k replays
		// bit-for-bit regardless of what else the service hosts. Connection
		// faults (ResetRate) are recorded in the trace but not enacted here:
		// resetting the shared mesh would leak one instance's chaos into
		// every other.
		cspec := *s.spec.Chaos
		cspec.Seed = DeriveSeed(cspec.Seed, int(h.id))
		if inst.chaos, err = transport.NewChaos(s.n, cspec); err != nil {
			return err
		}
		inst.chaosSpec = &cspec
		inst.job.Links = make([]transport.Link, s.n)
		for i, mesh := range s.mesh {
			inst.job.Links[i] = inst.chaos.WrapLink(noResets{mesh}, i)
		}
	}
	inst.start = time.Now()
	if err := s.group.Host(&inst.job); err != nil {
		return configErrorf("InstanceID", "%v", err)
	}
	return nil
}

// noResets hides a mesh link's connections from a per-instance chaos layer,
// which then records its injected resets without enacting them. Mesh links
// always batch.
type noResets struct{ transport.Link }

func (l noResets) SendBatch(ms []transport.Message) error {
	return l.Link.(transport.BatchSender).SendBatch(ms)
}

// finish assembles a finished instance's verdict, on the dispatch loop that
// retired its last node, and completes its handle.
func (s *Service) finish(inst *instance) {
	elapsed := time.Since(inst.start)
	outcomes, down, err := cluster.Outcomes(inst.nodes, &inst.job, nil, func(i int) transport.Counters {
		if inst.job.Links == nil {
			return transport.Counters{}
		}
		// Only the chaos losses are this instance's; the mesh link's counts
		// belong to every instance it hosts.
		c := inst.job.Links[i].Counters()
		return transport.Counters{Corrupt: c.Corrupt, Partitioned: c.Partitioned}
	})
	var trace []FaultEvent
	var chaosStats *ChaosStats
	if inst.chaos != nil {
		_ = inst.chaos.Close() // flush hold-backs onto the mesh
		trace = inst.chaos.Trace()
		cs := inst.chaos.Stats()
		chaosStats = &cs
	}
	h, horizon := inst.h, inst.job.Horizon
	var res *ClusterResult
	if err == nil {
		res = buildClusterResult(inst.inputs, s.spec.Epsilon, s.sched, inst.chaosSpec, inst.rounds,
			outcomes, down, elapsed)
		res.Chaos = chaosStats
		if len(down) > 0 {
			err = &NodeDownError{Nodes: down, Horizon: horizon, Partial: res}
		}
	}
	// No loop touches the instance any more: it is reusable whatever
	// happened to it.
	s.pool.Put(inst)
	s.complete(h, res, trace, err)
}

// complete publishes an instance's outcome: it fills and releases the
// handle, then sends the Results stream its entry (through the backlog when
// the stream is full) and frees the slot. It never blocks.
func (s *Service) complete(h *Handle, res *ClusterResult, trace []FaultEvent, err error) {
	h.res, h.trace, h.err = res, trace, err
	s.mu.Lock()
	delete(s.active, h.id)
	s.mu.Unlock()
	// Count the outcome before releasing the handle, so a Stats call made
	// after Await returns already includes this instance.
	if err != nil {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	h.mu.Lock()
	h.finished = true
	if h.done != nil {
		close(h.done)
	}
	h.mu.Unlock()
	if s.subscribed.Load() {
		ir := InstanceResult{ID: h.id, Result: res, Trace: trace, Err: err}
		select {
		case s.results <- ir:
		default:
			// At most MaxConcurrent instances hold slots, so the backlog
			// always has room.
			s.backlog <- ir
			return
		}
	}
	s.release()
}

// release frees a finished instance's slot.
func (s *Service) release() {
	<-s.slots
	s.inflight.Done()
}

// publish sends the backlog's completions to the Results stream as the
// consumer drains it, releasing each slot after its send.
func (s *Service) publish() {
	defer close(s.published)
	for ir := range s.backlog {
		select {
		case s.results <- ir:
		case <-s.ctx.Done():
		}
		s.release()
	}
}
