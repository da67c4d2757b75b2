package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Counters is a link's transport-level tally: the one counters surface of
// the link layer. Every Link reports it through Counters, and a wrapping
// link returns its inner link's counts plus its own. Fields a layer does not
// track stay zero (the in-memory hub counts only Overflow).
type Counters struct {
	// AuthFailures, ReplayDrops and MisdirectDrops count inbound frames
	// dropped before the protocol: failed HMAC verification, an
	// already-seen (from, instance, round, seq) tuple, or another node's
	// destination (TCP).
	AuthFailures, ReplayDrops, MisdirectDrops int64
	// FramesSent counts frames handed to the network (synchronous plus
	// batched sends), FramesReceived the inbound frames that passed every
	// check, and BatchWrites the batched path's socket writes, so
	// FramesSent/BatchWrites is the coalescing factor (TCP). The three
	// describe the network only: a frame a node sends itself never leaves
	// the process and counts in none of them.
	FramesSent, FramesReceived, BatchWrites int64
	// Reconnects, DialRetries, PeerDownEvents and PeerDownDrops are the
	// self-healing writers' counts (TCP): connections re-established after
	// a failure, failed dial attempts, peers that exhausted the retry
	// budget, and outbound frames absorbed as drops while their peer was
	// down.
	Reconnects, DialRetries, PeerDownEvents, PeerDownDrops int64
	// Overflow counts inbound frames dropped on a full inbox (the
	// in-memory hub).
	Overflow int64
	// Corrupt and Partitioned count the chaos losses addressed to this
	// node: corrupted frames the codec rejected, and frames dropped by
	// partition cuts and crash windows.
	Corrupt, Partitioned int64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// BatchSender is implemented by links that can accept a whole send phase at
// once. A lockstep protocol produces its n outbound messages together;
// handing them to the transport in one call lets the TCP path amortize
// locking, group frames by destination, and coalesce consecutive rounds
// into one socket write per peer (see TCPNode.SendBatch).
//
// Within the batch path, delivery to each peer is FIFO in enqueue order.
// On the TCP transport the batch path and the synchronous Send path use
// separate connections, so a caller that MIXES Send and SendBatch to the
// same peer gets no ordering guarantee between the two streams (and
// cross-stream reordering can trip the receiver's cross-round replay
// window). Use one path per link — the cluster protocol always batches.
type BatchSender interface {
	// SendBatch delivers every message in ms. It reports the first error
	// encountered; earlier messages may already have been handed to the
	// network when it fails.
	SendBatch(ms []Message) error
}

// Channel is the in-memory transport hub: per-node inbox channels with
// capacity n·rounds, modelling instantaneous reliable links. A message sent
// before Close is delivered to its destination inbox, counted as an
// overflow, or reported as an error; it is never silently created,
// duplicated or reordered per link (the paper's reliable-channel
// assumption, which the Chaos wrapper relaxes, seeded and counted).
//
// A full inbox is an overflow, not a blocking condition: the frame is
// dropped and counted (Counters.Overflow of the destination's link) so one slow or crashed receiver can
// never wedge its senders — historically Send held the hub lock across a
// blocking channel send, and a single full inbox deadlocked every sender
// and Close with it. To the protocol an overflow is indistinguishable from
// an omission fault, which deadline-based omission detection already
// handles.
type Channel struct {
	n       int
	inboxes []chan Message

	overflow []atomic.Int64 // per-destination dropped-on-full counters

	mu     sync.Mutex
	closed bool
}

// NewChannel returns an in-memory transport for n nodes. Each inbox buffers
// up to n·rounds messages where rounds is the expected in-flight window
// (use 2 for lockstep protocols: current round plus one round of skew).
func NewChannel(n, rounds int) (*Channel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: n=%d must be positive", n)
	}
	if rounds < 1 {
		rounds = 1
	}
	c := &Channel{
		n:        n,
		inboxes:  make([]chan Message, n),
		overflow: make([]atomic.Int64, n),
	}
	for i := range c.inboxes {
		c.inboxes[i] = make(chan Message, n*rounds)
	}
	return c, nil
}

// Send delivers m (m.From must be set) to node m.To's inbox. It returns an
// error if the hub is closed or an endpoint is out of range.
func (c *Channel) Send(m Message) error {
	if m.To < 0 || m.To >= c.n || m.From < 0 || m.From >= c.n {
		return fmt.Errorf("transport: send %d->%d out of range [0,%d)", m.From, m.To, c.n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	// Holding the lock keeps Close from closing an inbox mid-delivery; the
	// send itself must never block under it (a full inbox would wedge
	// every sender), so overflow drops instead.
	c.put(m)
	return nil
}

// put delivers m to its inbox or counts an overflow drop. Callers hold mu.
func (c *Channel) put(m Message) {
	select {
	case c.inboxes[m.To] <- m:
	default:
		c.overflow[m.To].Add(1)
	}
}

// SendBatch delivers every message in ms with one lock acquisition for the whole
// send phase instead of one per message.
func (c *Channel) SendBatch(ms []Message) error {
	for _, m := range ms {
		if m.To < 0 || m.To >= c.n || m.From < 0 || m.From >= c.n {
			return fmt.Errorf("transport: send %d->%d out of range [0,%d)", m.From, m.To, c.n)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for _, m := range ms {
		c.put(m)
	}
	return nil
}

// Inbox returns node id's receive channel, closed by Close.
func (c *Channel) Inbox(id int) <-chan Message { return c.inboxes[id] }

// Close closes every inbox; later sends fail with ErrClosed. Safe to call
// more than once.
func (c *Channel) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, ch := range c.inboxes {
		close(ch)
	}
	return nil
}
