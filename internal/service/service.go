// Package service multiplexes many concurrent agreement instances over one
// transport mesh. Each mesh node gets a Mux that owns the node's underlying
// transport.Link: a demux goroutine routes inbound frames to per-instance
// inboxes by the wire instance id, and a coalescing flusher merges the
// outbound batches of every hosted instance into single writes on the shared
// link — so frames from many instances destined to the same peer ride one
// socket write (the cross-instance extension of the TCP per-peer writer
// design). A Group ties the n muxes of a mesh together and hands out
// per-instance link sets with a shared registration epoch.
//
// Routing is lossy by design on the inbound side: a frame for an instance
// that is not registered (already retired, or never submitted here) is
// dropped and counted, exactly like the replay filter drops stale frames —
// to the protocol both are omissions, which deadline-based detection already
// handles. A frame for a registered instance whose inbox is full is likewise
// dropped and counted per route, surfacing as NodeStats.Overflow.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mbfaa/internal/transport"
)

// Mux multiplexes one mesh node's Link across agreement instances. Safe for
// concurrent use by many instance goroutines.
type Mux struct {
	node int
	link transport.Link

	rmu    sync.Mutex
	routes map[uint32]*route

	smu     sync.Mutex
	scond   sync.Cond
	pending []transport.Message
	spare   []transport.Message // flusher-owned: previous buffer, recycled
	serr    error
	sclosed bool

	unrouted  atomic.Int64
	stale     atomic.Int64
	overflows atomic.Int64
	frames    atomic.Int64
	flushes   atomic.Int64

	sendWG sync.WaitGroup // flusher goroutine
	recvWG sync.WaitGroup // demux goroutine
}

// route is one registered instance's inbound path on a Mux.
type route struct {
	ch       chan transport.Message
	epoch    uint32
	overflow atomic.Int64
}

// NewMux wraps one mesh node's link. The mux owns the link's Recv stream
// from this point on: nothing else may consume it.
func NewMux(node int, link transport.Link) *Mux {
	m := &Mux{
		node:   node,
		link:   link,
		routes: make(map[uint32]*route),
	}
	m.scond.L = &m.smu
	m.sendWG.Add(1)
	go m.flushLoop()
	m.recvWG.Add(1)
	go m.demuxLoop()
	return m
}

// Register creates the inbound route and returns the instance's Link view of
// this mux. epoch distinguishes incarnations of a reused instance id: the
// link stamps it into Seq, and the demux drops inbound frames whose epoch
// does not match the live registration. depth bounds the instance inbox; a
// lockstep protocol has at most two rounds in flight per sender, so 4n+4 is
// a safe depth for an n-node instance.
func (m *Mux) Register(instance, epoch uint32, depth int) (*InstanceLink, error) {
	if depth < 1 {
		depth = 1
	}
	rt := &route{ch: make(chan transport.Message, depth), epoch: epoch}
	m.rmu.Lock()
	if _, dup := m.routes[instance]; dup {
		m.rmu.Unlock()
		return nil, fmt.Errorf("service: instance %d already registered on node %d", instance, m.node)
	}
	m.routes[instance] = rt
	m.rmu.Unlock()
	return &InstanceLink{mux: m, instance: instance, epoch: epoch, rt: rt}, nil
}

// unregister retires an instance's route. Inbound frames for it afterwards
// count as unrouted drops.
func (m *Mux) unregister(instance uint32) {
	m.rmu.Lock()
	delete(m.routes, instance)
	m.rmu.Unlock()
}

// enqueue appends a batch for the flusher to coalesce into one write on the
// underlying link.
func (m *Mux) enqueue(ms []transport.Message) error {
	m.smu.Lock()
	defer m.smu.Unlock()
	switch {
	case m.serr != nil:
		return m.serr
	case m.sclosed:
		return transport.ErrClosed
	}
	m.pending = append(m.pending, ms...)
	m.frames.Add(int64(len(ms)))
	m.scond.Signal()
	return nil
}

// flushLoop drains the pending buffer, one underlying SendBatch per
// accumulated batch: whatever every instance enqueued since the last flush
// goes out in a single call, which the TCP path turns into one socket write
// per peer. pending and spare double-buffer so the steady state allocates
// nothing.
func (m *Mux) flushLoop() {
	defer m.sendWG.Done()
	bs, batched := m.link.(transport.BatchSender)
	for {
		m.smu.Lock()
		for len(m.pending) == 0 && !m.sclosed && m.serr == nil {
			m.scond.Wait()
		}
		if m.serr != nil || (m.sclosed && len(m.pending) == 0) {
			m.smu.Unlock()
			return
		}
		buf := m.pending
		m.pending = m.spare[:0]
		m.smu.Unlock()
		var err error
		if batched {
			err = bs.SendBatch(buf)
		} else {
			for _, msg := range buf {
				if err = m.link.Send(msg); err != nil {
					break
				}
			}
		}
		if err != nil {
			m.smu.Lock()
			m.serr = err
			m.pending = nil
			m.scond.Broadcast()
			m.smu.Unlock()
			return
		}
		m.flushes.Add(1)
		m.spare = buf // safe: only the flusher touches spare, after the send
	}
}

// demuxLoop routes the link's inbound stream to instance inboxes. It exits
// when the underlying link's Recv channel closes.
func (m *Mux) demuxLoop() {
	defer m.recvWG.Done()
	for msg := range m.link.Recv() {
		m.rmu.Lock()
		rt := m.routes[msg.Instance]
		m.rmu.Unlock()
		switch {
		case rt == nil:
			m.unrouted.Add(1)
		case msg.Seq != rt.epoch:
			// A frame from a previous incarnation of this instance id
			// (stamped with the old registration epoch): stale, never
			// deliverable to the new incarnation.
			m.stale.Add(1)
		default:
			select {
			case rt.ch <- msg:
			default:
				rt.overflow.Add(1)
				m.overflows.Add(1)
			}
		}
	}
}

// Close flushes and stops the outbound coalescer. It does not close the
// underlying link (the transport owner does); call Join after the transport
// is closed to wait the demux goroutine out.
func (m *Mux) Close() error {
	m.smu.Lock()
	m.sclosed = true
	m.scond.Broadcast()
	m.smu.Unlock()
	m.sendWG.Wait()
	m.smu.Lock()
	err := m.serr
	m.smu.Unlock()
	return err
}

// Join waits for the demux goroutine, which exits when the underlying
// link's inbound stream closes.
func (m *Mux) Join() { m.recvWG.Wait() }

// InstanceLink is one instance's view of a Mux: a transport.Link (and
// BatchSender) that stamps the instance id and registration epoch on every
// outbound message and receives exactly this instance's inbound frames.
type InstanceLink struct {
	mux      *Mux
	instance uint32
	epoch    uint32
	rt       *route
}

// Send implements transport.Link via the coalescing path.
func (l *InstanceLink) Send(msg transport.Message) error {
	msg.Instance, msg.Seq = l.instance, l.epoch
	return l.mux.enqueue([]transport.Message{msg})
}

// SendBatch implements transport.BatchSender: the instance's whole send
// phase joins the mux's pending buffer in one append, to be coalesced with
// every other instance's frames into a single underlying write.
func (l *InstanceLink) SendBatch(ms []transport.Message) error {
	for i := range ms {
		ms[i].Instance, ms[i].Seq = l.instance, l.epoch
	}
	return l.mux.enqueue(ms)
}

// Recv implements transport.Link: the instance's demuxed inbound stream.
func (l *InstanceLink) Recv() <-chan transport.Message { return l.rt.ch }

// Close implements transport.Link by retiring the route. The underlying
// link stays open for other instances.
func (l *InstanceLink) Close() error {
	l.mux.unregister(l.instance)
	return nil
}

// Counters implements transport.Link with the inbound frames dropped on
// this instance's full inbox (Overflow) and nothing else: the shared mesh
// link's counts belong to every hosted instance, so none is attributed to
// one of them.
func (l *InstanceLink) Counters() transport.Counters {
	return transport.Counters{Overflow: l.rt.overflow.Load()}
}

var (
	_ transport.Link        = (*InstanceLink)(nil)
	_ transport.BatchSender = (*InstanceLink)(nil)
)

// Stats aggregates a Mux's (or a whole Group's) multiplexing counters.
type Stats struct {
	// Frames counts messages handed to the coalescing send path; Flushes
	// counts the underlying writes they were merged into. Frames/Flushes is
	// the cross-instance coalescing factor.
	Frames, Flushes int64
	// Unrouted counts inbound frames for unregistered instances; Stale
	// counts frames from a retired incarnation of a live instance id;
	// Overflows counts frames dropped on full instance inboxes.
	Unrouted, Stale, Overflows int64
}

// FramesPerFlush returns the cross-instance coalescing factor (0 when
// nothing was flushed).
func (s Stats) FramesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Flushes)
}

// Stats returns the mux's counters so far.
func (m *Mux) Stats() Stats {
	return Stats{
		Frames:    m.frames.Load(),
		Flushes:   m.flushes.Load(),
		Unrouted:  m.unrouted.Load(),
		Stale:     m.stale.Load(),
		Overflows: m.overflows.Load(),
	}
}

// Group is the routing fabric of one mesh: a Mux per node and a shared
// epoch counter, so an instance registers once and gets its n links
// together.
type Group struct {
	muxes []*Mux
	epoch atomic.Uint32
}

// NewGroup wraps each node's link in a Mux. links[i] is mesh node i's.
func NewGroup(links []transport.Link) *Group {
	g := &Group{muxes: make([]*Mux, len(links))}
	for i, l := range links {
		g.muxes[i] = NewMux(i, l)
	}
	return g
}

// N returns the mesh size.
func (g *Group) N() int { return len(g.muxes) }

// Mux returns node i's mux (for per-node inspection in tests).
func (g *Group) Mux(i int) *Mux { return g.muxes[i] }

// Register creates instance's route on every mux under one fresh epoch and
// returns the n per-node links, index-aligned with the mesh. On a duplicate
// id the partial registrations are rolled back.
func (g *Group) Register(instance uint32, depth int) ([]transport.Link, error) {
	epoch := g.epoch.Add(1)
	links := make([]transport.Link, len(g.muxes))
	for i, m := range g.muxes {
		l, err := m.Register(instance, epoch, depth)
		if err != nil {
			for j := 0; j < i; j++ {
				g.muxes[j].unregister(instance)
			}
			return nil, err
		}
		links[i] = l
	}
	return links, nil
}

// Close flushes and stops every mux's outbound coalescer (see Mux.Close).
func (g *Group) Close() error {
	var first error
	for _, m := range g.muxes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Join waits out every mux's demux goroutine; call after closing the
// underlying transport.
func (g *Group) Join() {
	for _, m := range g.muxes {
		m.Join()
	}
}

// Stats returns the group-wide aggregate counters.
func (g *Group) Stats() Stats {
	var s Stats
	for _, m := range g.muxes {
		ms := m.Stats()
		s.Frames += ms.Frames
		s.Flushes += ms.Flushes
		s.Unrouted += ms.Unrouted
		s.Stale += ms.Stale
		s.Overflows += ms.Overflows
	}
	return s
}
