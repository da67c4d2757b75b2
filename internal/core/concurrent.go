package core

import (
	"fmt"
	"math"
	"sync"

	"mbfaa/internal/mixedmode"
	"mbfaa/internal/mobile"
	"mbfaa/internal/trace"
)

// RunConcurrent executes the protocol with one goroutine per process
// exchanging real messages over channels, coordinated into synchronous
// rounds. The adversary is consulted by the coordinator exactly as the
// deterministic engine consults it — one batched RoundDirectives call per
// round over the same plan — and every process's computation is backed
// by the messages its goroutine actually received: on the kernel path each
// worker first verifies its received row against the round's shared plan
// (value-for-value for symmetric senders, silence for silent ones) and
// then votes over the shared sorted base plus its own received patch — so
// RunConcurrent produces bit-identical Results to Run while exercising
// genuine concurrent message passing. The test suite asserts that
// equivalence. It is equivalent to NewRunner().RunConcurrent(cfg).
func RunConcurrent(cfg Config) (*Result, error) {
	return NewRunner().RunConcurrent(cfg)
}

// RunConcurrent executes the protocol on the goroutine-per-process engine,
// recycling the Runner's coordinator-side scratch state. The per-worker
// buffers are owned by the worker goroutines and die with the cluster.
func (r *Runner) RunConcurrent(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := newRunState(cfg, &r.sc)
	if err != nil {
		return nil, err
	}

	c := newCluster(cfg)
	defer c.shutdown()

	for round := 0; round < cfg.MaxRounds; round++ {
		// The cancellation probe runs only at round boundaries, where every
		// worker goroutine is quiescent (blocked on its directive channel):
		// aborting here lets shutdown close the directive channels without
		// stranding a worker mid-round waiting for messages that will never
		// be sent.
		if err := checkCtx(cfg.Ctx, round); err != nil {
			return nil, err
		}
		if err := st.runRoundConcurrent(c, round); err != nil {
			return nil, err
		}
		if st.halted(round) {
			break
		}
	}
	return st.result(), nil
}

// message is one round-stamped value in flight between process goroutines.
// Omission markers flow explicitly so that every receiver collects exactly
// n messages per round — the channel analogue of a synchronous round's
// "detectably absent" message.
type message struct {
	round   int
	from    int
	value   float64
	omitted bool
}

// sendDirective tells a worker how to behave in one round's send phase.
type sendDirective struct {
	round int
	mode  sendMode
	// setVote, when hasSetVote, overwrites the worker's stored vote before
	// sending (agent corruption / the value left behind on departure).
	setVote    float64
	hasSetVote bool
	// scripted holds the per-receiver outgoing messages for Byzantine and
	// M3-cured senders.
	scripted []message
}

// sendMode selects the worker's send behaviour.
type sendMode int

const (
	modeBroadcast sendMode = iota + 1 // broadcast stored vote (correct, M2-cured)
	modeSilent                        // omission markers only (M1-cured)
	modeScripted                      // adversary-scripted messages (faulty, M3-cured)
)

// computeDirective tells a worker whether it computes this round (a process
// hosting an agent during the computation phase does not), and — on the
// kernel path — hands it the round's shared plan. The plan is read-only for
// workers and backed by coordinator scratch; the directive send orders the
// coordinator's writes before the worker's reads, and the coordinator
// blocks on every worker's report before planning the next round, so the
// buffers are never written while a worker can still read them.
type computeDirective struct {
	round  int
	faulty bool
	kern   *kernelPlan
}

// report carries a worker's computed value back to the coordinator.
type report struct {
	round int
	from  int
	value float64 // NaN when the worker was faulty at compute time
	err   error
}

// cluster owns the worker goroutines and their channels.
type cluster struct {
	n        int
	inboxes  []chan message
	sendCh   []chan sendDirective
	computes []chan computeDirective
	reports  chan report
	wg       sync.WaitGroup
}

// newCluster starts the n worker goroutines.
func newCluster(cfg Config) *cluster {
	n := cfg.N
	c := &cluster{
		n: n,
		// Inbox capacity n is the synchronous-round mailbox: all n
		// senders must be able to deposit before any receiver drains,
		// or the all-send-then-all-receive phase structure deadlocks.
		inboxes:  make([]chan message, n),
		sendCh:   make([]chan sendDirective, n),
		computes: make([]chan computeDirective, n),
		reports:  make(chan report, n),
	}
	for i := 0; i < n; i++ {
		c.inboxes[i] = make(chan message, n)
		c.sendCh[i] = make(chan sendDirective, 1)
		c.computes[i] = make(chan computeDirective, 1)
	}
	for i := 0; i < n; i++ {
		c.wg.Add(1)
		go c.worker(cfg, i)
	}
	return c
}

// shutdown closes the directive channels and joins every worker.
func (c *cluster) shutdown() {
	for i := 0; i < c.n; i++ {
		close(c.sendCh[i])
		close(c.computes[i])
	}
	c.wg.Wait()
}

// worker is one process: it sends per the coordinator's directive, receives
// exactly n messages, computes its next vote from what it actually
// received, and reports it. On the kernel path it first verifies the
// received messages against the shared plan (kernelWorkerVote), then votes
// over the plan's sealed base plus its own received patch — so the
// computation still consumes only verified actually-exchanged messages but
// skips the per-worker O(n log n) sort. The observation row and the voting
// value buffer are worker-owned scratch, allocated once and recycled every
// round.
func (c *cluster) worker(cfg Config, id int) {
	defer c.wg.Done()
	vote := cfg.Inputs[id]
	tau := cfg.Tau()
	row := make([]mixedmode.Observation, c.n)
	values := make([]float64, 0, c.n)
	for sd := range c.sendCh[id] {
		if sd.hasSetVote {
			vote = sd.setVote
		}
		switch sd.mode {
		case modeBroadcast:
			for j := 0; j < c.n; j++ {
				c.inboxes[j] <- message{round: sd.round, from: id, value: vote}
			}
		case modeSilent:
			for j := 0; j < c.n; j++ {
				c.inboxes[j] <- message{round: sd.round, from: id, omitted: true}
			}
		case modeScripted:
			for j := 0; j < c.n; j++ {
				c.inboxes[j] <- sd.scripted[j]
			}
		}

		for k := 0; k < c.n; k++ {
			m := <-c.inboxes[id]
			row[m.from] = mixedmode.Observation{Value: m.value, Omitted: m.omitted}
		}

		cd, ok := <-c.computes[id]
		if !ok {
			return
		}
		if cd.faulty {
			vote = math.NaN()
			c.reports <- report{round: sd.round, from: id, value: vote}
			continue
		}
		var v float64
		var err error
		if cd.kern != nil {
			v, err = kernelWorkerVote(cfg.Algorithm, tau, cd.kern, row, vote, values[:0])
		} else {
			v, err = computeVote(cfg.Algorithm, tau, row, vote, values[:0])
		}
		if err != nil {
			c.reports <- report{round: sd.round, from: id, err: fmt.Errorf("core: round %d process %d: %w", sd.round, id, err)}
			continue
		}
		vote = v
		c.reports <- report{round: sd.round, from: id, value: v}
	}
}

// runRoundConcurrent mirrors runState.runRound with the computation phase
// delegated to the worker goroutines.
func (st *runState) runRoundConcurrent(c *cluster, round int) error {
	cfg := st.cfg
	if round > 0 && !cfg.Model.MovesWithMessages() {
		if err := st.move(round); err != nil {
			return err
		}
	}
	sendStates := st.sendStatesForChecks()

	plan, err := st.planSendPhase(round)
	if err != nil {
		return err
	}

	// Issue send directives derived from the same plan the deterministic
	// engine computes; correct and M2-cured workers broadcast their own
	// stored vote, which the coordinator synchronizes first. st.states
	// still holds the send-phase states here: M4's mid-round movement
	// only happens after the directives are issued.
	for i := 0; i < cfg.N; i++ {
		sd := sendDirective{round: round}
		switch st.states[i] {
		case mobile.StateCorrect:
			sd.mode = modeBroadcast
			sd.setVote, sd.hasSetVote = st.votes[i], true
		case mobile.StateCured:
			switch cfg.Model {
			case mobile.M1Garay:
				sd.mode = modeSilent
				sd.setVote, sd.hasSetVote = st.votes[i], true
			case mobile.M2Bonnet:
				// The cured process broadcasts the corrupted state the
				// agent left behind.
				sd.mode = modeBroadcast
				sd.setVote, sd.hasSetVote = st.votes[i], true
			case mobile.M3Sasaki:
				sd.mode = modeScripted
				sd.setVote, sd.hasSetVote = st.votes[i], true
				if sd.scripted, err = scriptFor(plan, i, round, cfg.N); err != nil {
					return err
				}
			}
		case mobile.StateFaulty:
			sd.mode = modeScripted
			sd.setVote, sd.hasSetVote = math.NaN(), true
			if sd.scripted, err = scriptFor(plan, i, round, cfg.N); err != nil {
				return err
			}
		}
		c.sendCh[i] <- sd
	}

	if cfg.Model.MovesWithMessages() {
		if err := st.moveM4(round); err != nil {
			return err
		}
	}

	for i := 0; i < cfg.N; i++ {
		c.computes[i] <- computeDirective{round: round, faulty: st.faulty.has(i), kern: plan.kern}
	}

	for k := 0; k < cfg.N; k++ {
		rep := <-c.reports
		if rep.err != nil {
			return rep.err
		}
		if rep.round != round {
			return fmt.Errorf("core: report for round %d while running round %d", rep.round, round)
		}
		st.newVotes[rep.from] = rep.value
	}
	for i := 0; i < cfg.N; i++ {
		if !st.faulty.has(i) {
			st.rec.Record(trace.Event{Round: round, Kind: trace.KindCompute, From: i, To: -1, Value: st.newVotes[i]})
		}
	}

	st.finishRound(round, sendStates, plan)
	return nil
}

// scriptFor extracts sender's outgoing messages from whichever plan
// representation the round produced: the kernel's directives script on the hot
// path, the observation matrix on the snapshot path.
func scriptFor(plan plannedRound, sender, round, n int) ([]message, error) {
	if plan.kern != nil {
		return plan.kern.scriptRow(sender, round)
	}
	return scriptColumn(plan.matrix, sender, round, n), nil
}

// scriptColumn extracts sender's outgoing messages from the planned matrix.
// The slice is handed to a worker goroutine that drains it at its own pace,
// so it cannot live in coordinator scratch.
func scriptColumn(m *mixedmode.Matrix, sender, round, n int) []message {
	out := make([]message, n)
	for j := 0; j < n; j++ {
		o, err := m.At(j, sender)
		if err != nil {
			// Cannot happen: indices are in range by construction.
			o = mixedmode.Observation{Omitted: true}
		}
		out[j] = message{round: round, from: sender, value: o.Value, omitted: o.Omitted}
	}
	return out
}
