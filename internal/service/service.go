// Package service runs agreement instances over one transport mesh on one
// dispatch loop per mesh node. A node's loop owns its transport.Link and
// hosts that node of every live instance as a sans-I/O step machine
// (Machine; cluster.Node in practice): it reads the link's inbox, routes
// each frame by instance id and registration epoch, runs the close check
// once the inbox is drained, and hands every send of the pass to the link in
// one SendBatch — so frames of many instances bound for the same peer ride
// one socket write. One timer per loop covers the earliest round deadline or
// instance horizon among its machines; a hosted instance costs no
// goroutine, channel or timer of its own. Engine.Serve hosts many instances
// on one Group; Deploy hosts one.
//
// Routing is lossy by design: a frame for an instance that is not hosted
// (already retired, or never submitted here) is dropped and counted, and so
// is a frame stamped with a retired incarnation's epoch — to the protocol
// both are omissions, which deadline-based detection already handles.
package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mbfaa/internal/transport"
)

// Machine is one node of one hosted instance as a step machine: Begin opens
// the next round and returns its sends, Deliver admits a frame, Settle closes
// the open round if its close rule holds, and Expire closes round at its
// deadline. cluster.Node implements it.
type Machine interface {
	Begin() []transport.Message
	Deliver(m transport.Message)
	Settle() bool
	Expire(round int) bool
	Round() int
	Done() bool
}

// Job is one agreement instance as a Group hosts it: a machine per mesh
// node, index-aligned with the mesh.
type Job struct {
	ID       uint32
	Machines []Machine
	// Timeout is every round's deadline. Horizon, when positive, bounds the
	// whole instance: machines still running that long after Host are
	// abandoned and marked Down.
	Timeout, Horizon time.Duration
	// Links, when non-nil, are send-side wrappers (a chaos layer) over the
	// mesh links: node i's sends go out through Links[i] at once instead
	// of joining its loop's pass batch.
	Links []transport.Link
	// Exit is called as each machine leaves its loop — last marks the
	// job's final machine, after which no loop touches the machines and the
	// job is retired. It must not block.
	Exit func(node int, last bool)

	// Down marks the machines abandoned at the horizon, and Errs those a
	// loop abandoned with an error (its context ended, or a send failed).
	// Entry i is final once Exit(i, …) has been called.
	Down []bool
	Errs []error

	group   *Group
	epoch   uint32
	horizon time.Time
	left    atomic.Int64
}

// leave records how node's machine left its loop and reports it through
// Exit, retiring the job after its last machine.
func (j *Job) leave(node int, down bool, err error) {
	j.Down[node], j.Errs[node] = down, err
	last := j.left.Add(-1) == 0
	if last {
		j.group.retire(j)
	}
	j.Exit(node, last)
}

// hosted is one machine of a job on its node's loop: the round open and its
// deadline, its place in the loop's active list, whether it received frames
// this pass, and whether it has left the loop.
type hosted struct {
	job   *Job
	node  int
	epoch uint32 // the job's, copied: a retired job may be hosted again
	m     Machine
	send  transport.Link // the job's Links entry; nil: the loop's pass batch

	round    int
	deadline time.Time
	idx      int
	touched  bool
	finished bool
}

// mux is one mesh node's dispatch loop.
type mux struct {
	node  int
	link  transport.Link
	group *Group
	ctx   context.Context

	mu      sync.Mutex
	routes  map[uint32]*hosted
	pending []*hosted
	stopped error // set when the loop exits; Host then refuses the node
	wake    chan struct{}

	// Loop-owned: the started, unfinished machines; those that received
	// frames this pass; the pass's sends; the timer, armed at armed (zero:
	// idle) for next, never later than the earliest deadline or horizon
	// among active.
	active  []*hosted
	touched []*hosted
	starts  []*hosted
	out     []transport.Message
	timer   *time.Timer
	armed   time.Time
	next    time.Time

	exited chan struct{}
}

// run is the dispatch loop. It exits when the link's inbox closes or the
// context ends, failing every machine still on it.
func (m *mux) run() {
	defer close(m.exited)
	defer m.timer.Stop()
	inbox := m.link.Recv()
	for err := error(nil); err == nil; {
		select {
		case msg, ok := <-inbox:
			if !ok {
				err = transport.ErrClosed
				break
			}
			m.route(msg)
			err = m.pass(inbox)
		case <-m.wake:
			err = m.pass(inbox)
		case <-m.timer.C:
			m.armed = time.Time{}
			err = m.pass(inbox)
		case <-m.ctx.Done():
			err = m.ctx.Err()
		}
		if err != nil {
			m.stop(err)
		}
	}
}

// pass delivers everything that has already arrived, then starts the new
// machines, runs the close check of every machine that received frames,
// expires what is due, and flushes the pass's sends in one SendBatch.
func (m *mux) pass(inbox <-chan transport.Message) error {
	for drained := false; !drained; {
		select {
		case msg, ok := <-inbox:
			if !ok {
				return transport.ErrClosed
			}
			m.route(msg)
		default:
			drained = true
		}
	}
	now := time.Now()
	m.mu.Lock()
	m.starts, m.pending = m.pending, m.starts[:0]
	m.mu.Unlock()
	for _, h := range m.starts {
		m.start(h, now)
	}
	for _, h := range m.touched {
		h.touched = false
		m.step(h, now)
	}
	m.touched = m.touched[:0]
	if !m.next.IsZero() && !now.Before(m.next) {
		m.expire(now)
	}
	if len(m.out) > 0 {
		err := m.group.send(m.link, m.out)
		m.out = m.out[:0]
		if err != nil {
			return err
		}
	}
	if !m.next.Equal(m.armed) {
		if !m.timer.Stop() {
			select {
			case <-m.timer.C:
			default:
			}
		}
		if m.armed = m.next; !m.next.IsZero() {
			m.timer.Reset(m.next.Sub(now))
		}
	}
	return nil
}

// route hands one inbound frame to its instance's machine.
func (m *mux) route(msg transport.Message) {
	m.mu.Lock()
	h := m.routes[msg.Instance]
	m.mu.Unlock()
	switch {
	case h == nil:
		m.group.unrouted.Add(1)
	case msg.Seq != h.epoch:
		// A frame from a previous incarnation of this instance id (stamped
		// with the old registration epoch): never deliverable to this one.
		m.group.stale.Add(1)
	case h.finished:
		// This node's machine has decided while the instance is still live
		// elsewhere; nothing reads the frame.
	default:
		h.m.Deliver(msg)
		if !h.touched {
			h.touched = true
			m.touched = append(m.touched, h)
		}
	}
}

// start puts a newly hosted machine on the loop and opens its first round.
func (m *mux) start(h *hosted, now time.Time) {
	h.idx = len(m.active)
	m.active = append(m.active, h)
	if hz := h.job.horizon; !hz.IsZero() && (m.next.IsZero() || hz.Before(m.next)) {
		m.next = hz
	}
	m.advance(h, now)
	m.step(h, now)
}

// step closes every round of h's machine the close rule allows now, opening
// the next one after each, until a round must wait or the machine is done.
func (m *mux) step(h *hosted, now time.Time) {
	for !h.finished && h.m.Settle() {
		m.advance(h, now)
	}
}

// advance opens h's next round — its sends join the pass batch (or go
// through the job's wrapper) and its deadline joins the timer's schedule —
// or retires a machine that is done.
func (m *mux) advance(h *hosted, now time.Time) {
	if h.m.Done() {
		m.finish(h, false, nil)
		return
	}
	h.round = h.m.Round()
	start := len(m.out)
	for _, s := range h.m.Begin() {
		s.Instance, s.Seq = h.job.ID, h.epoch
		m.out = append(m.out, s)
	}
	if h.send != nil {
		err := m.group.send(h.send, m.out[start:])
		m.out = m.out[:start]
		if err != nil {
			m.finish(h, false, fmt.Errorf("service: node %d send round %d: %w", m.node, h.round, err))
			return
		}
	}
	h.deadline = now.Add(h.job.Timeout)
	if m.next.IsZero() || h.deadline.Before(m.next) {
		m.next = h.deadline
	}
}

// expire closes every round whose deadline has passed, abandons the
// machines of instances past their horizon, and recomputes next.
func (m *mux) expire(now time.Time) {
	m.next = time.Time{}
	for i := 0; i < len(m.active); {
		h := m.active[i]
		hz := h.job.horizon
		switch {
		case !hz.IsZero() && !now.Before(hz):
			m.finish(h, true, nil)
		case !now.Before(h.deadline) && h.m.Expire(h.round):
			m.advance(h, now)
			m.step(h, now)
		}
		if h.finished {
			continue // swapped out: active[i] is another machine now
		}
		for _, t := range [2]time.Time{h.deadline, hz} {
			if !t.IsZero() && (m.next.IsZero() || t.Before(m.next)) {
				m.next = t
			}
		}
		i++
	}
}

// finish takes h's machine off the loop.
func (m *mux) finish(h *hosted, down bool, err error) {
	h.finished = true
	last := len(m.active) - 1
	m.active[h.idx] = m.active[last]
	m.active[h.idx].idx = h.idx
	m.active = m.active[:last]
	h.job.leave(h.node, down, err)
}

// stop ends the loop: every machine on it or waiting to start fails with
// err, and Host refuses the node from now on.
func (m *mux) stop(err error) {
	m.mu.Lock()
	m.stopped = err
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, h := range pending {
		h.idx = len(m.active)
		m.active = append(m.active, h)
	}
	for len(m.active) > 0 {
		m.finish(m.active[len(m.active)-1], false, err)
	}
}

// Group is the dispatch fabric of one mesh: a loop per node and a shared
// epoch counter, so an instance is hosted on every node at once.
type Group struct {
	muxes []*mux
	epoch atomic.Uint32

	frames, flushes, unrouted, stale atomic.Int64
}

// NewGroup starts a dispatch loop over each node's link; links[i] is mesh
// node i's, and its loop owns the link's inbox from here on. A loop exits
// when its link's inbox closes or ctx ends, failing the machines it hosts
// and every machine hosted on it later.
func NewGroup(ctx context.Context, links []transport.Link) *Group {
	g := &Group{muxes: make([]*mux, len(links))}
	for i, l := range links {
		m := &mux{
			node:   i,
			link:   l,
			group:  g,
			ctx:    ctx,
			routes: make(map[uint32]*hosted),
			wake:   make(chan struct{}, 1),
			timer:  time.NewTimer(time.Hour),
			exited: make(chan struct{}),
		}
		m.timer.Stop()
		g.muxes[i] = m
		go m.run()
	}
	return g
}

// Host registers j on every node under one fresh epoch and starts its
// machines. A live instance id cannot be hosted twice; the error leaves
// nothing registered.
func (g *Group) Host(j *Job) error {
	n := len(g.muxes)
	if len(j.Machines) != n {
		return fmt.Errorf("service: %d machines for a %d-node mesh", len(j.Machines), n)
	}
	j.group, j.epoch = g, g.epoch.Add(1)
	j.Down, j.Errs = make([]bool, n), make([]error, n)
	j.left.Store(int64(n))
	j.horizon = time.Time{}
	if j.Horizon > 0 {
		j.horizon = time.Now().Add(j.Horizon)
	}
	hs := make([]hosted, n)
	for i, m := range g.muxes {
		hs[i] = hosted{job: j, node: i, epoch: j.epoch, m: j.Machines[i]}
		if j.Links != nil {
			hs[i].send = j.Links[i]
		}
		m.mu.Lock()
		_, dup := m.routes[j.ID]
		if !dup {
			m.routes[j.ID] = &hs[i]
		}
		m.mu.Unlock()
		if dup {
			g.retire(j)
			return fmt.Errorf("service: instance %d already registered on node %d", j.ID, i)
		}
	}
	// Every node routes the instance before any machine sends, so no frame
	// of it arrives unrouted.
	for i, m := range g.muxes {
		m.mu.Lock()
		stopped := m.stopped
		if stopped == nil {
			m.pending = append(m.pending, &hs[i])
		}
		m.mu.Unlock()
		if stopped != nil {
			j.leave(i, false, stopped)
			continue
		}
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// retire drops j's routes on every node: later frames of it count as
// unrouted.
func (g *Group) retire(j *Job) {
	for _, m := range g.muxes {
		m.mu.Lock()
		if h := m.routes[j.ID]; h != nil && h.job == j {
			delete(m.routes, j.ID)
		}
		m.mu.Unlock()
	}
}

// send is the loops' one way onto a link, counted for Stats.
func (g *Group) send(link transport.Link, ms []transport.Message) error {
	g.frames.Add(int64(len(ms)))
	g.flushes.Add(1)
	if bs, ok := link.(transport.BatchSender); ok {
		return bs.SendBatch(ms)
	}
	for _, msg := range ms {
		if err := link.Send(msg); err != nil {
			return err
		}
	}
	return nil
}

// Join waits out every dispatch loop; call after closing the links or
// ending the context.
func (g *Group) Join() {
	for _, m := range g.muxes {
		<-m.exited
	}
}

// Stats counts a Group's dispatch work.
type Stats struct {
	// Frames counts messages the loops handed to the links; Flushes counts
	// the SendBatch calls that carried them: one per loop pass with sends,
	// plus one per round of a wrapped machine. Frames/Flushes is the
	// cross-instance coalescing factor.
	Frames, Flushes int64
	// Unrouted counts inbound frames for instances not hosted, Stale frames
	// from a retired incarnation of a live instance id.
	Unrouted, Stale int64
}

// Stats returns the group's counters so far.
func (g *Group) Stats() Stats {
	return Stats{
		Frames:   g.frames.Load(),
		Flushes:  g.flushes.Load(),
		Unrouted: g.unrouted.Load(),
		Stale:    g.stale.Load(),
	}
}
