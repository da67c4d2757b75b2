// Package cluster runs the MSR approximate-agreement protocol as a real
// distributed deployment: one Node per process, communicating over a
// transport.Link (in-memory channels or authenticated TCP sockets), in
// synchronous rounds with deadline-based omission detection — strict
// lockstep by default, or pipelined up to Config.PipelineDepth rounds ahead
// of the slowest live peer — the synchronous system of paper §3 realised
// over actual message passing. Every node exchanges values with every node,
// itself included: the full mesh of paper §3, the only communication graph
// the paper's contraction theorems cover.
//
// A Node is a sans-I/O step machine: it holds no link, channel, timer or
// context. It runs on internal/service's dispatch loop, one goroutine and
// one deadline timer per mesh node, hosting that node of one instance
// (RunClusterDeadline, behind Deploy) or of many (Engine.Serve). Every
// depth keeps one ring of per-round receive states, so a frame that arrives
// ahead of its round waits in that round's slot.
//
// Fault injection is schedule-driven: a FaultSchedule deterministically
// marks which nodes the mobile agents occupy in each round, and occupied
// nodes execute the adversarial send behaviour themselves (a compromised
// machine is the attacker). The schedule reproduces the mobile models'
// state machine: occupied → byzantine sends; just-released → the model's
// cured behaviour.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/service"
	"mbfaa/internal/transport"
)

// FaultSchedule decides which nodes the agents occupy in a given round.
// Implementations must be deterministic pure functions so every node
// derives the same schedule (the test harness plays the omniscient
// adversary; in production nothing implements this — it exists to attack
// your own deployment).
type FaultSchedule interface {
	// Occupied returns the node ids hosting agents in round r.
	Occupied(round int) []int
}

// SizedSchedule is implemented by schedules that know the cluster size they
// were built for; Config.Validate uses it to reject a schedule that
// disagrees with the deployment (the historical source of out-of-range
// "occupied" ids).
type SizedSchedule interface {
	FaultSchedule
	// ValidateFor reports whether the schedule is well-formed for an n-node
	// cluster.
	ValidateFor(n int) error
}

// NoFaults is the empty schedule.
type NoFaults struct{}

// Occupied implements FaultSchedule.
func (NoFaults) Occupied(int) []int { return nil }

// RotatingFaults sweeps f agents across n nodes, shifting by f every
// round — the cluster counterpart of mobile.Rotating.
type RotatingFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s RotatingFaults) Occupied(round int) []int {
	if s.F <= 0 || s.N <= 0 {
		return nil
	}
	out := make([]int, 0, s.F)
	start := (round * s.F) % s.N
	for i := 0; i < s.F && i < s.N; i++ {
		out = append(out, (start+i)%s.N)
	}
	return out
}

// ValidateFor implements SizedSchedule.
func (s RotatingFaults) ValidateFor(n int) error {
	switch {
	case s.N != n:
		return fmt.Errorf("cluster: rotating schedule built for n=%d, deployment has n=%d", s.N, n)
	case s.F > n:
		return fmt.Errorf("cluster: rotating schedule occupies f=%d of only n=%d nodes", s.F, n)
	}
	return nil
}

// CrashFaults marks the same rotation as RotatingFaults but nodes omit
// instead of lying (benign control).
type CrashFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s CrashFaults) Occupied(round int) []int {
	return RotatingFaults(s).Occupied(round)
}

// ValidateFor implements SizedSchedule.
func (s CrashFaults) ValidateFor(n int) error { return RotatingFaults(s).ValidateFor(n) }

// PingPongFaults alternates the agents between nodes [0, F) and [F, 2F)
// each round — the cluster counterpart of the splitter's maximum-pressure
// schedule (every round has F occupied and F just-released nodes). N is the
// cluster size; the second camp is clamped to it, so the schedule never
// emits node ids ≥ N (deployments with 2F > N are rejected by ValidateFor —
// the ping-pong needs two disjoint camps).
type PingPongFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s PingPongFaults) Occupied(round int) []int {
	if s.F <= 0 {
		return nil
	}
	start := 0
	if round%2 == 1 {
		start = s.F
	}
	end := start + s.F
	if s.N > 0 && end > s.N {
		end = s.N
	}
	if end <= start {
		return nil
	}
	out := make([]int, 0, end-start)
	for id := start; id < end; id++ {
		out = append(out, id)
	}
	return out
}

// ValidateFor implements SizedSchedule.
func (s PingPongFaults) ValidateFor(n int) error {
	switch {
	case s.N != n:
		return fmt.Errorf("cluster: ping-pong schedule built for n=%d, deployment has n=%d", s.N, n)
	case 2*s.F > n:
		return fmt.Errorf("cluster: ping-pong schedule needs two disjoint camps: 2f=%d > n=%d", 2*s.F, n)
	}
	return nil
}

// Config parameterizes one cluster node.
type Config struct {
	// ID and N identify the node and the cluster size; F is the agent
	// count the deployment must tolerate.
	ID, N, F int
	// Model selects the mobile fault model (drives τ and cured behaviour).
	Model mobile.Model
	// Algorithm is the MSR voting function.
	Algorithm msr.Algorithm
	// Input is this node's initial value.
	Input float64
	// InputRange is the a-priori spread of correct inputs (e.g. the sensor
	// spec range); with Epsilon and the algorithm's contraction guarantee
	// it fixes the round count every node computes locally — the
	// Dolev-style halting rule without an omniscient observer.
	InputRange float64
	// Epsilon is the agreement tolerance.
	Epsilon float64
	// RoundTimeout is the receive-phase deadline after which missing
	// senders are treated as omissions (benign).
	RoundTimeout time.Duration
	// Schedule injects mobile faults; NoFaults{} for honest runs. The
	// schedule must be identical on every node of a test deployment.
	Schedule FaultSchedule
	// AllowSubBound skips the n > bound(f) resilience check. The
	// lower-bound experiments run deliberately under-provisioned systems;
	// every other deployment should fail fast instead of silently
	// diverging.
	AllowSubBound bool
	// Crash selects omission behaviour (instead of Byzantine values) for
	// occupied nodes.
	Crash bool
	// CampBoundary, when positive, switches occupied nodes to the
	// splitter's camp attack: AttackLo to node ids below the boundary,
	// AttackHi to the rest. This is how the lower-bound freeze is
	// reproduced over real links.
	CampBoundary       int
	AttackLo, AttackHi float64
	// FixedRounds overrides the computed round count when positive.
	FixedRounds int
	// SyncRounds makes every round last the full RoundTimeout instead of
	// closing as soon as all senders reported — the paper's fixed-duration
	// synchronous round. Early exit is an optimization that
	// assumes reliable channels: under injected loss it lets fast nodes
	// run a full deadline ahead of lagging peers, and whether a skewed
	// frame counts as Received or Late becomes a scheduling race. Chaos
	// deployments set this so per-node stats replay bit-for-bit. Because
	// those links may drop or corrupt frames, SyncRounds also floors the
	// contraction behind the computed round horizon at 1/2: a contraction
	// of 0 ("identical multisets agree exactly in one round") assumes every
	// correct value arrives.
	SyncRounds bool
	// PipelineDepth (k), when positive, lets the node run up to k rounds
	// ahead of its slowest live peer instead of strict lockstep: a round
	// closes as soon as its quorum-or-deadline condition is met (every
	// sender reported; or a majority reported and advancing keeps
	// the node within k rounds of the slowest non-stalled peer; or the
	// deadline fired). Peers persistently more than k rounds behind are
	// flagged stalled (NodeStats.StallEvents) and excluded from the pacing
	// brake, so one wedged peer cannot wedge the cluster; every round a
	// peer misses raises its NodeStats.PeerMisses score. Depth 0 is strict
	// lockstep: a round closes when every sender reported or the
	// deadline fired. At every depth frames are kept in a ring of
	// MaxPipelineDepth+1 per-round receive states; the window ahead of the
	// open round is k rounds at depth k and the whole ring (MaxPipelineDepth
	// rounds) at depth 0, and frames beyond it are dropped and counted
	// (NodeStats.StaleRounds). SyncRounds overrides early close at any
	// depth — chaos rounds keep their full fixed duration per round index,
	// so seeded replay holds. At most MaxPipelineDepth.
	PipelineDepth int
}

// MaxPipelineDepth bounds Config.PipelineDepth: the replay windows behind
// the pipeline are one 64-bit word wide (transport.MaxRoundWindow), and the
// depth plus reordering slack must fit inside them.
const MaxPipelineDepth = 32

// Validate checks the node configuration. Deployments at or below the
// model's Table 2 replica bound are rejected with the same typed
// *mobile.BoundError the core engine's CheckSystem returns, unless
// AllowSubBound opts into the lower-bound regime. A SizedSchedule that
// disagrees with the cluster size is rejected here, before any message
// flows.
func (c Config) Validate() error {
	switch {
	case c.N <= 0 || c.ID < 0 || c.ID >= c.N:
		return fmt.Errorf("cluster: id %d / n %d invalid", c.ID, c.N)
	case c.F < 0:
		return fmt.Errorf("cluster: negative f")
	case !c.Model.Valid():
		return fmt.Errorf("cluster: invalid model")
	case c.Algorithm == nil:
		return fmt.Errorf("cluster: nil algorithm")
	case c.Epsilon <= 0 && c.FixedRounds <= 0:
		return fmt.Errorf("cluster: need positive epsilon or fixed rounds")
	case c.InputRange <= 0 && c.FixedRounds <= 0:
		return fmt.Errorf("cluster: need positive input range or fixed rounds")
	case c.RoundTimeout <= 0:
		return fmt.Errorf("cluster: need a positive round timeout")
	case c.Schedule == nil:
		return fmt.Errorf("cluster: nil schedule (use NoFaults{})")
	case c.PipelineDepth < 0 || c.PipelineDepth > MaxPipelineDepth:
		return fmt.Errorf("cluster: pipeline depth %d out of range [0, %d]", c.PipelineDepth, MaxPipelineDepth)
	}
	if !c.AllowSubBound {
		if err := mobile.CheckSystem(c.Model, c.N, c.F); err != nil {
			return err
		}
	}
	if sized, ok := c.Schedule.(SizedSchedule); ok {
		if err := sized.ValidateFor(c.N); err != nil {
			return err
		}
	}
	return nil
}

// Rounds returns the number of rounds the node will run: FixedRounds if
// set, otherwise ⌈log(ε/range)/log(C)⌉ from the algorithm's guaranteed
// contraction C over the n-value multiset of the full mesh (n−f under M1,
// whose cured senders are silent). Under SyncRounds C is floored at 1/2,
// since lossy links break the premise of a contraction of 0. The horizon is
// deterministic from the shared config, so every node halts together. It
// returns an error when the algorithm offers no guarantee (Median) and no
// FixedRounds was given.
func (c Config) Rounds() (int, error) {
	if c.FixedRounds > 0 {
		return c.FixedRounds, nil
	}
	m := c.N
	if c.Model == mobile.M1Garay {
		m -= c.F
	}
	contraction, ok := c.Algorithm.Contraction(m, c.Model.Trim(c.F), c.Model.AsymmetricSenders(c.F))
	if !ok {
		return 0, errors.New("cluster: algorithm has no contraction guarantee; set FixedRounds")
	}
	if c.SyncRounds && contraction < 0.5 {
		contraction = 0.5
	}
	r, err := msr.RequiredRounds(c.InputRange, c.Epsilon, contraction)
	if err != nil {
		return 0, err
	}
	return max(r, 1), nil
}

// NodeStats counts one node's transport-level activity over a run: the
// observability surface of a deployment (the distributed system has no
// omniscient observer, so per-node counters are what operators get).
type NodeStats struct {
	// Sent and Received count protocol messages handed to, and accepted
	// from, the link (including the self-delivered value).
	Sent, Received int64
	// Omissions counts missing values: explicit omission markers plus
	// senders missing at the round deadline.
	Omissions int64
	// Rejected counts frames dropped before reaching the protocol:
	// messages whose sender id is outside [0, n) here, plus the link
	// layer's authentication, replay and misdirection drops on TCP links.
	Rejected int64
	// Duplicates counts frames dropped by the node's replay window: a
	// second frame for an already-recorded (sender, round), or a frame
	// older than the window — the chaos layer's duplication shows up here.
	Duplicates int64
	// Late counts frames that arrived for a round the node had already
	// closed without recording that sender: genuinely late originals
	// (latency, a lagging peer catching up after a crash, a frame an early
	// close ruled an omission).
	Late int64
	// StaleRounds counts frames dropped beyond the window ahead of the open
	// round: from a peer running further ahead than the receive ring
	// tracks (more than PipelineDepth rounds, or MaxPipelineDepth rounds at
	// depth 0).
	StaleRounds int64
	// StallEvents counts transitions of a peer into the stalled state —
	// its newest observed frame persistently more than PipelineDepth
	// rounds behind this node. A peer that recovers and stalls again
	// counts again. Always zero at depth 0.
	StallEvents int64
	// PeerMisses scores the peers: PeerMisses[s] is how many rounds this
	// node closed without sender s's frame — the per-peer reliability
	// score behind the stall detector. Nil at depth 0.
	PeerMisses []int64
	// Corrupt counts inbound frames the chaos layer corrupted and the
	// codec rejected on this node's behalf (folded from the link).
	Corrupt int64
	// Partitioned counts inbound frames dropped by chaos partition cuts
	// and crash windows addressed to this node (folded from the link).
	Partitioned int64
	// Overflow counts inbound frames dropped because this node's inbox was
	// full — the receiver sees them as omissions (folded from the link).
	// Always zero for a Service instance: its nodes share the mesh inboxes,
	// whose overflow ServiceStats.InboxDrops counts for the whole service.
	Overflow int64
	// Reconnects counts outbound connections the transport's self-healing
	// writers re-established after a write or dial failure (folded from the
	// link; always zero on the in-memory transport).
	Reconnects int64
	// DialRetries counts failed outbound dial attempts, each retried or
	// given up under the transport's retry policy (folded from the link).
	DialRetries int64
	// PeerDownEvents counts peers that exhausted the retry budget and
	// transitioned into the down state (folded from the link).
	PeerDownEvents int64
	// PeerDownDrops counts outbound frames absorbed as drops because their
	// peer was down — omission-style losses, not errors: the receiving side
	// scores them via Omissions/PeerMisses like any silent sender (folded
	// from the link).
	PeerDownDrops int64
}

// Node is one cluster member as a sans-I/O step machine: the protocol state
// of one node and nothing else — no link, channel, timer or context. Its
// caller moves it through each round: Begin returns the round's sends,
// Deliver admits each inbound frame, Settle runs the close check once the
// caller has delivered everything that already arrived, and Expire closes
// the round at its deadline. When the last round has closed, Done reports
// true and Result returns the decision. internal/service's dispatch loops
// drive it.
type Node struct {
	cfg  Config
	tau  int
	vote float64

	// rounds is the horizon; round is the open round, or the next one to
	// open while open is false. err is a failed vote, which ends the run.
	rounds int
	round  int
	open   bool
	err    error

	// prevOcc is the previous round's occupied set (the cured nodes), and
	// occupied whether the agents hold this node in the open round.
	prevOcc  []int
	occupied bool

	// win is the node's replay window: per sender, a sliding bitmap
	// (transport.RoundWindow) of rounds whose frame was recorded — the
	// same primitive the TCP replay filter runs per flow. A second frame
	// for a recorded (sender, round) — or one below the window — is a
	// duplicate; an unrecorded frame for a closed round is late. Both are
	// dropped, counted, and keep a recovering peer's catch-up traffic from
	// ever corrupting a closed round.
	win []transport.RoundWindow

	// ring holds the receive states of the open round and the rounds ahead
	// of it, MaxPipelineDepth+1 slots at every depth; a slot is nil until a
	// frame of its round arrives, and a closed round's state goes to spare
	// for the next slot to take, so only the rounds in flight hold arrays.
	// ahead is how many rounds past the open one admit records
	// (PipelineDepth, or the whole ring at depth 0).
	ring  []*roundState
	spare []*roundState
	ahead int

	// Pipelined-mode state, allocated only at PipelineDepth > 0: lastSeen
	// is the newest round observed from each sender (stale frames included
	// — they are liveness evidence the stall detector and pacing brake feed
	// on), stalled the current stall classification, misses the per-peer
	// score.
	lastSeen []int
	stalled  []bool
	misses   []int64

	stats NodeStats

	// Per-round scratch, recycled across rounds so the protocol does not
	// allocate per round: out is the send phase's message batch.
	// The computation phase runs through the base+patch kernel: the
	// deterministic schedule tells every node which senders are
	// asymmetric this round (occupied nodes, and M3-cured poisoned
	// queues), so received values split into a symmetric base and an
	// O(f) patch. msr.KernelVote validates and sorts both sides in place
	// (the buffers are reordered) and votes over the two runs without
	// merging them.
	out    []transport.Message
	isAsym []bool
	base   []float64
	patch  []float64

	// dirVals/dirOmit are the node's per-round send directives, indexed
	// by destination id: the deployment analogue of the simulator's bulk
	// Directives script. planSend derives the whole round's script from the
	// schedule in one pass; Begin merely materializes it into messages.
	dirVals []float64
	dirOmit []bool
}

// NewNode validates cfg, resolves its round horizon and returns the node's
// step machine, ready for its first Begin.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rounds, err := cfg.Rounds()
	if err != nil {
		return nil, err
	}
	nd := &Node{
		cfg:     cfg,
		tau:     cfg.Model.Trim(cfg.F),
		vote:    cfg.Input,
		rounds:  rounds,
		isAsym:  make([]bool, cfg.N),
		win:     make([]transport.RoundWindow, cfg.N),
		ring:    make([]*roundState, MaxPipelineDepth+1),
		ahead:   cfg.PipelineDepth,
		out:     make([]transport.Message, 0, cfg.N),
		base:    make([]float64, 0, cfg.N),
		patch:   make([]float64, 0, cfg.N),
		dirVals: make([]float64, cfg.N),
		dirOmit: make([]bool, cfg.N),
	}
	if cfg.PipelineDepth == 0 {
		nd.ahead = MaxPipelineDepth
	} else {
		nd.lastSeen = make([]int, cfg.N)
		for i := range nd.lastSeen {
			nd.lastSeen[i] = -1
		}
		nd.stalled = make([]bool, cfg.N)
		nd.misses = make([]int64, cfg.N)
	}
	return nd, nil
}

// Reset rewinds a node for a fresh run with a new input, input range and
// round count, keeping everything derived from the validated config —
// receive windows, kernel scratch, directive buffers — allocated. This is
// the service layer's pooling hook: one node set is constructed and
// validated per pool slot, then recycled across agreement instances.
// fixedRounds must be positive (the service resolves the horizon up front so
// all nodes of an instance halt together); input and inputRange are not
// re-validated here — the caller owns input hygiene.
func (nd *Node) Reset(input, inputRange float64, fixedRounds int) {
	nd.cfg.Input = input
	nd.cfg.InputRange = inputRange
	nd.cfg.FixedRounds = fixedRounds
	nd.rounds = fixedRounds
	nd.round, nd.open, nd.err = 0, false, nil
	nd.prevOcc = nil
	nd.vote = input
	nd.stats = NodeStats{}
	for i := range nd.win {
		nd.win[i].Reset()
	}
	for i := range nd.ring {
		nd.release(i)
	}
	for i := range nd.lastSeen {
		nd.lastSeen[i] = -1
	}
	clear(nd.stalled)
	clear(nd.misses)
}

// Stats returns the node's protocol counters so far. The link-level losses
// a link reports (authentication and replay drops, chaos losses, overflow,
// reconnects) are folded in with NodeStats.Fold.
func (nd *Node) Stats() NodeStats {
	s := nd.stats
	if nd.misses != nil {
		s.PeerMisses = append([]int64(nil), nd.misses...)
	}
	return s
}

// Fold adds a link's Counters to the node's own: a chaos wrapper's
// corrupt/partition losses addressed to this node, and the transport's
// authentication, replay and misdirection drops, inbox overflows, and
// reconnect and peer-health counts.
func (s NodeStats) Fold(c transport.Counters) NodeStats {
	s.Rejected += c.AuthFailures + c.ReplayDrops + c.MisdirectDrops
	s.Corrupt += c.Corrupt
	s.Partitioned += c.Partitioned
	s.Overflow += c.Overflow
	s.Reconnects += c.Reconnects
	s.DialRetries += c.DialRetries
	s.PeerDownEvents += c.PeerDownEvents
	s.PeerDownDrops += c.PeerDownDrops
	return s
}

// Round returns the open round, or the next round to open between a close
// and the following Begin.
func (nd *Node) Round() int { return nd.round }

// Done reports whether the node has run its last round (or failed a vote).
func (nd *Node) Done() bool { return nd.err != nil || nd.round >= nd.rounds }

// Result returns the node's decision once Done, or the error that ended
// its run.
func (nd *Node) Result() (float64, error) {
	if nd.err != nil {
		return 0, nd.err
	}
	return nd.vote, nil
}

// Begin opens the next round and returns its sends: one message per
// destination, From left for the link to stamp. The slice is reused by the
// next Begin. It returns nil while a round is open or once the node is Done.
func (nd *Node) Begin() []transport.Message {
	if nd.open || nd.Done() {
		return nil
	}
	occ := nd.cfg.Schedule.Occupied(nd.round)
	nd.occupied = slices.Contains(occ, nd.cfg.ID)
	cured := slices.Contains(nd.prevOcc, nd.cfg.ID) && !nd.occupied
	nd.classifySenders(occ, nd.prevOcc)
	nd.prevOcc = occ
	nd.planSend(nd.occupied, cured)
	nd.out = nd.out[:0]
	for to := range nd.cfg.N {
		nd.out = append(nd.out, transport.Message{
			Round:   nd.round,
			To:      to,
			Value:   nd.dirVals[to],
			Omitted: nd.dirOmit[to],
		})
	}
	nd.stats.Sent += int64(len(nd.out))
	nd.open = true
	return nd.out
}

// Deliver admits one inbound frame against the open round (or, between a
// close and the next Begin, the round about to open). Frames reaching a
// node that is Done are ignored.
func (nd *Node) Deliver(m transport.Message) {
	if !nd.Done() {
		nd.admit(m, nd.round)
	}
}

// Settle is the close check: it closes the open round if the depth's close
// rule holds now, and reports whether it did. Callers run it after
// delivering every frame that has already arrived, so an early close never
// discards a frame that is there.
func (nd *Node) Settle() bool {
	if !nd.open {
		return false
	}
	st := nd.slot(nd.round)
	if !nd.closeable(st, nd.round) {
		return false
	}
	nd.close(st)
	return true
}

// Expire closes round at its deadline if it is still the open round, and
// reports whether it did; a deadline for a round that already closed is
// ignored.
func (nd *Node) Expire(round int) bool {
	if !nd.open || round != nd.round {
		return false
	}
	nd.close(nd.slot(round))
	return true
}

// classifySenders marks which senders are asymmetric this round, from the
// shared deterministic schedule: nodes the agents occupy, plus — under M3 —
// the just-released nodes whose poisoned queues send per-receiver garbage.
// Every other sender is symmetric and feeds the kernel's base (M2-cured
// nodes broadcast one corrupted value to everybody — symmetric by
// definition; M1-cured nodes are silent and contribute nothing either way).
func (nd *Node) classifySenders(occ, prevOcc []int) {
	for i := range nd.isAsym {
		nd.isAsym[i] = false
	}
	for _, id := range occ {
		if id >= 0 && id < nd.cfg.N {
			nd.isAsym[id] = true
		}
	}
	if nd.cfg.Model == mobile.M3Sasaki {
		for _, id := range prevOcc {
			if id >= 0 && id < nd.cfg.N && !slices.Contains(occ, id) {
				nd.isAsym[id] = true
			}
		}
	}
}

// planSend derives this round's complete send script from the node's
// schedule-given role in one pass, filling the per-destination directive
// buffers. The role is fixed for the whole round — occupied, cured, or
// correct — so the (value, omit) decision is a pure function of the role
// and the destination, mirroring the simulator's once-per-round batched
// adversary consultation.
func (nd *Node) planSend(occupied, cured bool) {
	for to := range nd.cfg.N {
		v, omit := nd.vote, false
		switch {
		case occupied && nd.cfg.Crash:
			omit = true
		case occupied && nd.cfg.CampBoundary > 0:
			// Splitter-style camp attack: hold the two halves apart.
			if to < nd.cfg.CampBoundary {
				v = nd.cfg.AttackLo
			} else {
				v = nd.cfg.AttackHi
			}
		case occupied:
			// Byzantine: per-receiver split values at the spec extremes.
			if to%2 == 0 {
				v = nd.vote - nd.cfg.InputRange
			} else {
				v = nd.vote + nd.cfg.InputRange
			}
		case cured:
			switch nd.cfg.Model {
			case mobile.M1Garay:
				omit = true // aware: stays silent one round
			case mobile.M3Sasaki:
				// Poisoned queue: per-receiver garbage (camp-targeted
				// when the camp attack is on — the departing agent
				// loaded the queue).
				switch {
				case nd.cfg.CampBoundary > 0 && to < nd.cfg.CampBoundary:
					v = nd.cfg.AttackLo
				case nd.cfg.CampBoundary > 0:
					v = nd.cfg.AttackHi
				case to%2 == 0:
					v = nd.vote - nd.cfg.InputRange/2
				default:
					v = nd.vote + nd.cfg.InputRange/2
				}
			default:
				// M2: broadcasts the corrupted stored value (symmetric);
				// M4: cured nodes behave correctly.
			}
		}
		nd.dirVals[to] = v
		nd.dirOmit[to] = omit
	}
}

// roundState is one round's receive state in the ring: which round owns
// it (-1: none), how many senders reported, which did, and their
// values, with an omission stored as NaN — all the base/patch split reads.
// admit records at most ahead ≤ MaxPipelineDepth rounds past the open one,
// so the rounds in flight map to distinct ring slots.
type roundState struct {
	round int
	count int
	seen  []bool
	vals  []float64
}

// slot returns round's receive state, taking a spare state (or a new one)
// for an empty ring slot and clearing a state that belonged to another
// round.
func (nd *Node) slot(round int) *roundState {
	p := &nd.ring[round%len(nd.ring)]
	if *p == nil {
		if k := len(nd.spare) - 1; k >= 0 {
			*p, nd.spare = nd.spare[k], nd.spare[:k]
		} else {
			*p = &roundState{round: -1, seen: make([]bool, nd.cfg.N), vals: make([]float64, nd.cfg.N)}
		}
	}
	st := *p
	if st.round != round {
		st.round = round
		st.count = 0
		clear(st.seen)
	}
	return st
}

// release moves ring slot i's receive state, if any, to the spare list.
func (nd *Node) release(i int) {
	if st := nd.ring[i]; st != nil {
		st.round = -1
		nd.spare = append(nd.spare, st)
		nd.ring[i] = nil
	}
}

// close rules the open round: missing senders become detected omissions
// (benign) — the deadline's ruling, however soon the close rule reached it —
// and the values received split into the kernel's symmetric base and
// asymmetric patch per the round's sender classification. It then votes,
// applies the agent's leave-behind, and moves the node to the next round.
func (nd *Node) close(st *roundState) {
	round := nd.round
	nd.stats.Omissions += int64(nd.cfg.N - st.count)
	if nd.cfg.PipelineDepth > 0 {
		nd.scorePeers(st, round)
	}
	base, patch := nd.base[:0], nd.patch[:0]
	for s, ok := range st.seen {
		if !ok {
			continue
		}
		switch v := st.vals[s]; {
		case math.IsNaN(v):
			nd.stats.Omissions++
		case nd.isAsym[s]:
			patch = append(patch, v)
		default:
			base = append(base, v)
		}
	}
	nd.release(round % len(nd.ring))
	nd.open = false
	nd.round++
	if len(base)+len(patch) > 0 {
		v, err := msr.KernelVote(nd.cfg.Algorithm, nd.tau, base, patch)
		if err != nil {
			nd.err = fmt.Errorf("cluster: node %d round %d: %w", nd.cfg.ID, round, err)
			return
		}
		nd.vote = v
	}
	if nd.occupied && nd.cfg.Model != mobile.M4Buhrman {
		// The agent leaves a corrupted value behind; under M2 the
		// node will broadcast it while cured. Under M4 the agent
		// departs with the message, before the computation phase,
		// so the released host's recomputed state is clean.
		if nd.cfg.CampBoundary > 0 {
			nd.vote = nd.cfg.AttackHi // the splitter's LeaveBehind
		} else {
			nd.vote = nd.vote + nd.cfg.InputRange
		}
	}
}

// scorePeers raises the per-peer miss score of every sender missing from
// the closed round and refreshes the stall classification for the next
// round: a peer whose newest observed frame trails the round this node is
// advancing to by more than k is stalled; it recovers as soon as its frames
// catch back up within the window. A round-r frame that arrived while an
// earlier round was open counts now (admit defers it under SyncRounds;
// without SyncRounds lastSeen already covers it).
func (nd *Node) scorePeers(st *roundState, round int) {
	for s := range nd.cfg.N {
		if s == nd.cfg.ID {
			continue
		}
		if !st.seen[s] {
			nd.misses[s]++
		} else if nd.lastSeen[s] < round {
			nd.lastSeen[s] = round
		}
		stalled := round+1-nd.lastSeen[s] > nd.cfg.PipelineDepth
		if stalled && !nd.stalled[s] {
			nd.stats.StallEvents++
		}
		nd.stalled[s] = stalled
	}
}

// admit routes one inbound frame against the window [round, round+ahead].
// At depth k > 0 any frame from a sender in [0, n) — stale ones included —
// refreshes lastSeen: even a too-old frame proves the peer alive, which
// the stall detector and pacing brake feed on. Under SyncRounds only
// frames of rounds up to the open one refresh it here: whether a peer's
// next-round frame beats this node's deadline is a scheduling race, and
// the stall classification (hence StallEvents) must replay bit for bit. A
// frame recorded for a later round counts when that round closes.
func (nd *Node) admit(m transport.Message, round int) {
	if m.From < 0 || m.From >= nd.cfg.N {
		nd.stats.Rejected++
		return
	}
	if nd.lastSeen != nil && m.Round > nd.lastSeen[m.From] && (m.Round <= round || !nd.cfg.SyncRounds) {
		nd.lastSeen[m.From] = m.Round
	}
	switch {
	case m.Round < round:
		// That round closed. A recorded (sender, round) is a chaos
		// duplicate; an unrecorded one is a late original.
		if nd.win[m.From].Recorded(m.Round) {
			nd.stats.Duplicates++
		} else {
			nd.stats.Late++
		}
	case m.Round > round+nd.ahead:
		// Beyond the window: the sender ran further ahead than the ring
		// tracks (at depth k > 0 it has stall-flagged this node). Dropped
		// and counted; its absence surfaces as an omission when this round
		// is reached.
		nd.stats.StaleRounds++
	default:
		st := nd.slot(m.Round)
		if st.seen[m.From] {
			nd.stats.Duplicates++
			return
		}
		v := m.Value
		if m.Omitted {
			v = math.NaN()
		}
		st.seen[m.From] = true
		st.vals[m.From] = v
		st.count++
		nd.stats.Received++
		nd.win[m.From].Record(m.Round)
	}
}

// closeable reports whether round's receive state can close now. With
// SyncRounds (chaos deployments) rounds always last their full deadline at
// any depth — early close would reintroduce the cross-node round skew the
// shared round clock exists to remove, breaking seeded replay — so only
// the deadline closes them.
func (nd *Node) closeable(st *roundState, round int) bool {
	if nd.cfg.SyncRounds {
		return false
	}
	if st.count == nd.cfg.N {
		return true
	}
	if nd.cfg.PipelineDepth == 0 {
		// Lockstep waits for the deadline: a peer that has not sent the
		// next round yet would read as stalled to the rules below.
		return false
	}
	// Quorum: a majority reported, and advancing keeps this node within k
	// rounds of the slowest peer still considered live. The missing
	// minority becomes omissions — exactly what the deadline would rule,
	// reached as soon as the ruling cannot change the quorum.
	if 2*st.count > nd.cfg.N && nd.withinBrake(round) {
		return true
	}
	// Every still-missing sender is stall-flagged: waiting out the
	// deadline buys nothing — their round-r frames are already beyond the
	// window on their side.
	return nd.missingAllStalled(st)
}

// withinBrake reports whether advancing past round keeps this node within
// PipelineDepth rounds of the slowest non-stalled peer's newest observed
// frame. Stalled peers are excluded — the stall detector's point is that
// one wedged peer must not wedge the cluster — and with no live peer at
// all the brake holds (the all-stalled close and the deadline pace the
// node instead).
func (nd *Node) withinBrake(round int) bool {
	min, live := 0, false
	for s := range nd.cfg.N {
		if s == nd.cfg.ID || nd.stalled[s] {
			continue
		}
		if !live || nd.lastSeen[s] < min {
			min, live = nd.lastSeen[s], true
		}
	}
	if !live {
		return false
	}
	return round+1-min <= nd.cfg.PipelineDepth
}

// missingAllStalled reports whether every sender still missing
// from the round is currently stall-flagged. The node itself is never
// flagged, so a round with nothing received (not even the self frame)
// stays open.
func (nd *Node) missingAllStalled(st *roundState) bool {
	if st.count == 0 {
		return false
	}
	for s := range nd.cfg.N {
		if !st.seen[s] && !nd.stalled[s] {
			return false
		}
	}
	return true
}

// HonestAtEnd returns which nodes are NOT occupied by an agent in the final
// round of an R-round run — the nodes whose decisions count, mirroring the
// simulator's Decided semantics (a node the agent controls at decision time
// outputs whatever the agent wants).
func HonestAtEnd(s FaultSchedule, rounds, n int) []bool {
	honest := make([]bool, n)
	for i := range honest {
		honest[i] = true
	}
	if rounds <= 0 {
		return honest
	}
	for _, id := range s.Occupied(rounds - 1) {
		if id >= 0 && id < n {
			honest[id] = false
		}
	}
	return honest
}

// Outcome is one node's result in a RunCluster deployment.
type Outcome struct {
	Value float64
	Stats NodeStats
}

// RunCluster is the test/demo harness: it builds n nodes over the given
// links, runs them concurrently, and returns their decisions. The links
// slice must come from one mesh (transport.Channel.Link or NewTCPMesh).
// Cancelling ctx aborts every node at its next receive or round boundary.
func RunCluster(ctx context.Context, cfgs []Config, links []transport.Link) ([]float64, error) {
	outcomes, _, err := RunClusterDeadline(ctx, cfgs, links, 0)
	if err != nil {
		return nil, err
	}
	decisions := make([]float64, len(outcomes))
	for i, o := range outcomes {
		decisions[i] = o.Value
	}
	return decisions, nil
}

// downGrace is how long RunClusterDeadline waits past the horizon for a
// node wedged in its link's Send before reporting it down unread. A
// variable so tests can shorten the wedged-node path.
var downGrace = 2 * time.Second

// RunClusterDeadline is RunCluster with per-node outcomes and a watchdog.
// It hosts the nodes as one instance on a service.Group over the links —
// one dispatch loop, hence one goroutine and one deadline timer, per node —
// and returns when every node has decided. If the run has not completed
// within horizon (> 0), the nodes still running are abandoned and reported
// in the down list with their partial Stats — the deployment-facing answer
// to "a node stayed dead past its timeout horizon". A node wedged inside
// its link's Send for a further grace period is reported down with a zero
// Outcome: its loop may still touch its state. Nodes that failed for any
// other reason surface through err. horizon <= 0 disables the watchdog.
func RunClusterDeadline(ctx context.Context, cfgs []Config, links []transport.Link, horizon time.Duration) ([]Outcome, []int, error) {
	if len(cfgs) != len(links) {
		return nil, nil, fmt.Errorf("cluster: %d configs for %d links", len(cfgs), len(links))
	}
	n := len(cfgs)
	nodes := make([]*Node, n)
	machines := make([]service.Machine, n)
	for i := range cfgs {
		if links[i] == nil {
			return nil, nil, errors.New("cluster: nil link")
		}
		node, err := NewNode(cfgs[i])
		if err != nil {
			return nil, nil, err
		}
		nodes[i], machines[i] = node, node
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	exits := make(chan int, n) // one send per node: Exit never blocks a loop
	job := &service.Job{
		Machines: machines,
		Timeout:  cfgs[0].RoundTimeout,
		Horizon:  horizon,
		Exit:     func(node int, _ bool) { exits <- node },
	}
	g := service.NewGroup(runCtx, links)
	if err := g.Host(job); err != nil {
		return nil, nil, err
	}
	var wedged <-chan time.Time
	if horizon > 0 {
		t := time.NewTimer(horizon + downGrace)
		defer t.Stop()
		wedged = t.C
	}
	exited := make([]bool, n)
wait:
	for range n {
		select {
		case id := <-exits:
			exited[id] = true
		case <-wedged:
			break wait
		}
	}
	cancel()
	if !slices.Contains(exited, false) {
		g.Join()
	}
	return Outcomes(nodes, job, exited, func(i int) transport.Counters { return links[i].Counters() })
}

// Outcomes reads the outcomes of nodes hosted as job once their machines
// have left their loops (those with exited[i]; a nil exited means all):
// decisions, Stats with fold's counters for node i added, the down list —
// machines abandoned at the horizon, and unexited ones, which are left
// unread — and the first error a node failed with.
func Outcomes(nodes []*Node, job *service.Job, exited []bool, fold func(int) transport.Counters) ([]Outcome, []int, error) {
	outcomes := make([]Outcome, len(nodes))
	var down []int
	var firstErr error
	for i, nd := range nodes {
		if exited != nil && !exited[i] {
			down = append(down, i)
			continue
		}
		outcomes[i].Stats = nd.Stats().Fold(fold(i))
		err := job.Errs[i]
		switch {
		case job.Down[i]:
			down = append(down, i)
		case err == nil:
			outcomes[i].Value, err = nd.Result()
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("node %d: %w", i, err)
		}
	}
	return outcomes, down, firstErr
}
