package transport

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var testKey = []byte("test-key")

func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Round: 0, From: 0, To: 1, Value: 3.14},
		{Round: 42, From: 7, To: 0, Value: -1e300},
		{Round: 1, From: 2, To: 3, Omitted: true},
		{Round: 9, From: 1, To: 1, Value: math.Inf(1)},
		{Round: 5, From: 4, To: 2, Value: 0, Seq: 77},
		{Round: 3, From: 0, To: 1, Value: 2.5, Instance: 0xdeadbeef, Seq: 9},
	}
	for _, m := range msgs {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		if len(frame) != FrameSize {
			t.Fatalf("frame size %d, want %d", len(frame), FrameSize)
		}
		got, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		want := m
		if want.Omitted {
			want.Value = 0 // canonical
		}
		if got != want {
			t.Errorf("roundtrip: got %+v, want %+v", got, want)
		}
	}
}

func TestCodecRejectsNaN(t *testing.T) {
	c, _ := NewCodec(testKey)
	if _, err := c.Encode(Message{Value: math.NaN()}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Encode(NaN) err = %v, want ErrBadValue", err)
	}
}

func TestCodecRejectsEmptyKey(t *testing.T) {
	if _, err := NewCodec(nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestCodecRejectsTampering(t *testing.T) {
	c, _ := NewCodec(testKey)
	frame, err := c.Encode(Message{Round: 3, From: 1, To: 2, Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the value field: the MAC must catch it.
	for _, idx := range []int{3, 8, 25, 30} {
		evil := append([]byte(nil), frame...)
		evil[idx] ^= 0x01
		if _, err := c.Decode(evil); !errors.Is(err, ErrBadMAC) {
			t.Errorf("tampered byte %d: err = %v, want ErrBadMAC", idx, err)
		}
	}
	// Flip a MAC byte.
	evil := append([]byte(nil), frame...)
	evil[FrameSize-1] ^= 0xff
	if _, err := c.Decode(evil); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered MAC: err = %v, want ErrBadMAC", err)
	}
}

func TestCodecRejectsWrongKey(t *testing.T) {
	a, _ := NewCodec([]byte("key-a"))
	b, _ := NewCodec([]byte("key-b"))
	frame, err := a.Encode(Message{Round: 1, From: 0, To: 1, Value: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Decode(frame); !errors.Is(err, ErrBadMAC) {
		t.Errorf("cross-key decode err = %v, want ErrBadMAC", err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	c, _ := NewCodec(testKey)
	if _, err := c.Decode([]byte{1, 2, 3}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame err = %v", err)
	}
	junk := make([]byte, FrameSize)
	if _, err := c.Decode(junk); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v", err)
	}
	frame, _ := c.Encode(Message{Round: 1, From: 0, To: 1, Value: 5})
	frame[2] = 99 // version
	if _, err := c.Decode(frame); !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadMAC) {
		t.Errorf("bad version err = %v", err)
	}
}

// Property: encode/decode is the identity on valid messages.
func TestQuickCodecRoundTrip(t *testing.T) {
	c, _ := NewCodec(testKey)
	f := func(round uint16, from, to uint8, value float64, omitted bool, instance, seq uint32) bool {
		if math.IsNaN(value) {
			return true
		}
		m := Message{Round: int(round), From: int(from), To: int(to), Value: value, Omitted: omitted, Instance: instance, Seq: seq}
		frame, err := c.Encode(m)
		if err != nil {
			return false
		}
		got, err := c.Decode(frame)
		if err != nil {
			return false
		}
		if omitted {
			m.Value = 0
		}
		return got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChannelTransport(t *testing.T) {
	hub, err := NewChannel(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	link0 := hub.Link(0)
	if err := link0.Send(Message{To: 1, Value: 9, Round: 0}); err != nil {
		t.Fatal(err)
	}
	got := <-hub.Inbox(1)
	if got.From != 0 || got.Value != 9 {
		t.Errorf("received %+v", got)
	}
	// From is stamped by the link even if the caller lies.
	if err := hub.Link(2).Send(Message{From: 0, To: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	got = <-hub.Inbox(1)
	if got.From != 2 {
		t.Errorf("link allowed sender forgery: From = %d", got.From)
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := NewChannel(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	hub, _ := NewChannel(2, 1)
	if err := hub.Send(Message{To: 5}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Send(Message{To: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close err = %v", err)
	}
	if err := hub.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestReplayFilter(t *testing.T) {
	f := newReplayFilter()
	if !f.admit(1, 0, 0, 0) {
		t.Error("first frame rejected")
	}
	if f.admit(1, 0, 0, 0) {
		t.Error("duplicate admitted")
	}
	if !f.admit(1, 0, 0, 1) {
		t.Error("new seq rejected")
	}
	if !f.admit(2, 0, 0, 0) {
		t.Error("other sender rejected")
	}
	for r := 1; r <= 10; r++ {
		if !f.admit(1, 0, r, 0) {
			t.Errorf("round %d rejected", r)
		}
	}
	if f.admit(1, 0, 2, 0) {
		t.Error("frame far below high-water admitted")
	}
	if !f.admit(1, 0, 8, 1) {
		t.Error("fresh frame within window rejected")
	}
}

// TestReplayFilterInstanceStreams: replay state is per (sender, instance,
// seq) flow, so concurrent instances — all starting at round 0 — never shade
// each other, and a reused instance id under a fresh epoch (carried in seq)
// starts a clean flow while replays of the old incarnation stay rejected.
func TestReplayFilterInstanceStreams(t *testing.T) {
	f := newReplayFilter()
	// Instance 7 runs to round 40.
	for r := 0; r <= 40; r++ {
		if !f.admit(1, 7, r, 1) {
			t.Fatalf("instance 7 round %d rejected", r)
		}
	}
	// A different instance from the same sender starts at round 0: must not
	// be shadowed by instance 7's high-water mark.
	if !f.admit(1, 8, 0, 1) {
		t.Error("concurrent instance's round 0 rejected as stale")
	}
	// Instance 7 retires; its id is reused under epoch 2: fresh flow.
	if !f.admit(1, 7, 0, 2) {
		t.Error("reused instance id under new epoch rejected")
	}
	// A replay of the old incarnation's frame still lands in the old flow.
	if f.admit(1, 7, 40, 1) {
		t.Error("old-incarnation replay admitted")
	}
}

// TestReplayFilterEviction: the flow table is bounded; the oldest flow is
// forgotten beyond the cap and a replay into it is admitted again (the
// service demux's epoch check is the second line of defense).
func TestReplayFilterEviction(t *testing.T) {
	f := newReplayFilter()
	f.limit = 4
	for inst := uint32(0); inst < 5; inst++ {
		if !f.admit(0, inst, 0, 1) {
			t.Fatalf("instance %d rejected", inst)
		}
	}
	if len(f.flows) != 4 {
		t.Fatalf("tracked flows = %d, want 4 (capped)", len(f.flows))
	}
	// Instance 0 was evicted: its replay is admitted here (and must be
	// caught downstream by the epoch check instead).
	if !f.admit(0, 0, 0, 1) {
		t.Error("evicted flow's frame rejected; expected re-admission")
	}
}

// TestCodecVersionError: a version-byte mismatch surfaces as the typed
// *VersionError wrapping the ErrBadVersion sentinel.
func TestCodecVersionError(t *testing.T) {
	c, _ := NewCodec(testKey)
	frame, err := c.Encode(Message{Round: 1, From: 0, To: 1, Value: 5})
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 1 // the pre-instance-id v1 layout
	_, err = c.Decode(frame)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("decode err = %v, want *VersionError", err)
	}
	if ve.Got != 1 || ve.Want != frameVersion {
		t.Errorf("VersionError = %+v, want Got=1 Want=%d", ve, frameVersion)
	}
	if !errors.Is(err, ErrBadVersion) {
		t.Error("VersionError does not unwrap to ErrBadVersion")
	}
}

func TestTCPMeshDelivery(t *testing.T) {
	nodes, err := NewTCPMesh(3, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	if err := nodes[0].Send(Message{To: 1, Round: 0, Value: 2.5}); err != nil {
		t.Fatal(err)
	}
	got := <-nodes[1].Recv()
	if got.From != 0 || got.Value != 2.5 {
		t.Errorf("received %+v", got)
	}
	// Full round: everyone to everyone.
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if err := nodes[from].Send(Message{To: to, Round: 1, Value: float64(from)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for to := 0; to < 3; to++ {
		seen := make(map[int]bool)
		for k := 0; k < 3; k++ {
			m := <-nodes[to].Recv()
			seen[m.From] = true
		}
		if len(seen) != 3 {
			t.Errorf("node %d saw senders %v", to, seen)
		}
	}
}

func TestTCPSenderCannotForge(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)
	if err := nodes[0].Send(Message{From: 1, To: 1, Round: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	got := <-nodes[1].Recv()
	if got.From != 0 {
		t.Errorf("forged From accepted: %d", got.From)
	}
}

func TestTCPValidation(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)
	if err := nodes[0].Send(Message{To: 9}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestChannelSendBatch(t *testing.T) {
	hub, err := NewChannel(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	link := hub.Link(0)
	bs, ok := link.(BatchSender)
	if !ok {
		t.Fatal("channel link does not implement BatchSender")
	}
	batch := []Message{
		{To: 1, Round: 0, Value: 1},
		{To: 2, Round: 0, Value: 2},
		{To: 0, Round: 0, Value: 3}, // self-delivery
	}
	if err := bs.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, m := range batch {
		got := <-hub.Inbox(m.To)
		if got.From != 0 || got.Value != m.Value {
			t.Errorf("inbox %d received %+v", m.To, got)
		}
	}
	if err := bs.SendBatch([]Message{{To: 9}}); err == nil {
		t.Error("out-of-range batch accepted")
	}
	_ = hub.Close()
	if err := bs.SendBatch([]Message{{To: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close err = %v", err)
	}
}

// TestTCPSendBatch: a batched send phase reaches every destination in
// order, with frames to one peer coalescing into fewer socket writes than
// messages. The frames node 0 sends itself never reach a socket, so the
// wire counters cover the two remote peers only.
func TestTCPSendBatch(t *testing.T) {
	nodes, err := NewTCPMesh(3, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	const rounds = 20
	for r := 0; r < rounds; r++ {
		batch := []Message{
			{To: 1, Round: r, Value: float64(r)},
			{To: 2, Round: r, Value: float64(-r)},
			{To: 0, Round: r, Value: 0.5},
		}
		if err := nodes[0].SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Drain all three inboxes (self-delivery included) so every remote
	// peer's writer provably flushed before the counters are read.
	for to := 0; to <= 2; to++ {
		for r := 0; r < rounds; r++ {
			select {
			case m := <-nodes[to].Recv():
				if m.From != 0 || m.Round != r {
					t.Fatalf("node %d received %+v, want round %d from 0 (order preserved)", to, m, r)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("node %d: round %d never arrived", to, r)
			}
		}
	}
	if got := nodes[0].Counters().FramesSent; got != 2*rounds {
		t.Errorf("FramesSent = %d, want %d", got, 2*rounds)
	}
	// Coalescing: the writer can never need more writes than frames, and
	// at least one write per remote peer happened. Each peer writer counts
	// a write only after conn.Write returns, which can trail the frame's
	// arrival, so wait (bounded) for every writer's count to land.
	w := nodes[0].Counters().BatchWrites
	for wait := time.Now().Add(2 * time.Second); w < 2 && time.Now().Before(wait); w = nodes[0].Counters().BatchWrites {
		time.Sleep(time.Millisecond)
	}
	if w < 2 || w > 2*rounds {
		t.Errorf("BatchWrites = %d outside [2, %d]", w, 2*rounds)
	}
	if err := nodes[0].SendBatch([]Message{{To: 7}}); err == nil {
		t.Error("out-of-range batch destination accepted")
	}
	_ = nodes[0].Close()
	if err := nodes[0].SendBatch([]Message{{To: 1, Round: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close err = %v", err)
	}
}

// TestTCPSelfDelivery: frames a node addresses to itself arrive in order
// through Send and SendBatch without touching a socket — every dial fails,
// yet nothing is dialed, written or counted on the wire — and they arrive
// exactly as the codec would have decoded them.
func TestTCPSelfDelivery(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes[1:])
	nd := nodes[0]
	inj := &scriptedDialFaults{}
	inj.fail.Store(true)
	nd.SetDialFaults(inj)
	codec, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}

	sent := []Message{
		{Round: 0, Value: 1.5},
		{Round: 1, Value: math.Copysign(0, -1), Instance: 7, Seq: 3},
		{Round: 2, Value: 42, Omitted: true},
		{Round: 3, Value: math.NaN(), Omitted: true},
		{Round: math.MaxInt64, Value: math.Inf(-1), Instance: math.MaxUint32, Seq: math.MaxUint32},
	}
	for _, m := range sent[:2] {
		m.From, m.To = 1, 0 // From is restamped; To addresses the node itself
		if err := nd.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]Message, 0, len(sent)-2)
	for _, m := range sent[2:] {
		m.To = 0
		batch = append(batch, m)
	}
	if err := nd.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i, m := range sent {
		m.From, m.To = 0, 0
		frame, err := codec.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-nd.Recv():
			// An omission arrives with the codec's canonical value 0, and
			// -0 keeps its sign (== alone cannot tell the zeros apart).
			if got != want || math.Signbit(got.Value) != math.Signbit(want.Value) {
				t.Errorf("frame %d: got %+v, want %+v", i, got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("self frame %d never arrived", i)
		}
	}

	for _, send := range []func(Message) error{nd.Send, func(m Message) error { return nd.SendBatch([]Message{m}) }} {
		if err := send(Message{To: 0, Value: math.NaN()}); !errors.Is(err, ErrBadValue) {
			t.Errorf("NaN to self: err = %v, want ErrBadValue", err)
		}
	}
	c := nd.Counters()
	if c.FramesSent != 0 || c.FramesReceived != 0 || c.BatchWrites != 0 || c.DialRetries != 0 {
		t.Errorf("self delivery touched the wire: %+v", c)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Send(Message{To: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send to self after Close: err = %v, want ErrClosed", err)
	}
	if err := nd.SendBatch([]Message{{To: 0}}); !errors.Is(err, ErrClosed) {
		t.Errorf("SendBatch to self after Close: err = %v, want ErrClosed", err)
	}
}

func closeAll(t *testing.T, nodes []*TCPNode) {
	t.Helper()
	for _, nd := range nodes {
		if err := nd.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}
