package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"mbfaa/internal/prng"
)

// pinnedMessages is the seeded message set TestCodecFramePinned signs: the
// edge cases the wire format must keep (signed zeros, an omission carrying
// a nonzero value, NaN, the largest round, instance and seq, From/To at
// n−1) followed by seeded random messages of a 4-node and a 1024-node mesh.
func pinnedMessages() []Message {
	msgs := []Message{
		{Round: 0, From: 0, To: 1, Value: 0},
		{Round: 1, From: 1, To: 0, Value: math.Copysign(0, -1)},
		{Round: 2, From: 2, To: 3, Value: 42.5, Omitted: true},
		{Round: 3, From: 3, To: 2, Value: math.NaN(), Omitted: true},
		{Round: 4, From: 0, To: 3, Value: math.NaN()},
		{Round: math.MaxInt64, From: 3, To: 3, Value: math.Inf(-1)},
		{Round: 7, From: 1, To: 2, Value: math.Inf(1), Instance: math.MaxUint32, Seq: math.MaxUint32},
		{Round: 9, From: 1023, To: 1023, Value: -math.MaxFloat64, Instance: 1, Seq: 2},
		{Round: 11, From: 2, To: 1, Value: math.SmallestNonzeroFloat64},
	}
	src := prng.New(30)
	for i := 0; i < 64; i++ {
		n := 4
		if i%2 == 1 {
			n = 1024
		}
		msgs = append(msgs, Message{
			Round:    src.Intn(1 << 20),
			From:     src.Intn(n),
			To:       src.Intn(n),
			Value:    src.Range(-1e6, 1e6),
			Omitted:  src.Bool(0.25),
			Instance: uint32(src.Uint64()),
			Seq:      uint32(src.Uint64()),
		})
	}
	return msgs
}

// TestCodecFramePinned pins the wire bytes: the sha256 over Encode's
// frames for pinnedMessages (a rejected message contributes its error
// text) was recorded before the codec pooled its MAC states and must never
// move — the frame format is part of the authenticated-channel contract.
func TestCodecFramePinned(t *testing.T) {
	c, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rejected := 0
	for _, m := range pinnedMessages() {
		frame, err := c.Encode(m)
		if err != nil {
			if !errors.Is(err, ErrBadValue) {
				t.Fatalf("Encode(%+v) = %v, want nil or ErrBadValue", m, err)
			}
			rejected++
			h.Write([]byte(err.Error()))
			continue
		}
		h.Write(frame)
	}
	if rejected != 1 {
		t.Errorf("%d messages rejected, want 1 (the non-omitted NaN)", rejected)
	}
	const want = "7fb88a02d6fdc0d9112070a09a5a268f9f2dff899c5c80e945c3ef2fba93348e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("frame digest = %s, want %s", got, want)
	}
}

// TestCodecKeysIsolated: two Codecs with different keys, used from several
// goroutines at once, never verify each other's frames — each Codec's pool
// holds only states keyed with its own key.
func TestCodecKeysIsolated(t *testing.T) {
	a, err := NewCodec([]byte("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec([]byte("key-b"))
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 4, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < iters; i++ {
				m := Message{Round: i, From: w, To: 3 - w, Value: float64(i*workers + w)}
				own, other := a, b
				if (i+w)%2 == 1 {
					own, other = b, a
				}
				var err error
				if buf, err = own.AppendFrame(buf[:0], m); err != nil {
					errs <- err.Error()
					return
				}
				if got, err := own.Decode(buf); err != nil || got != m {
					errs <- fmt.Sprintf("own key: got %+v, %v; want %+v", got, err, m)
					return
				}
				if _, err := other.Decode(buf); !errors.Is(err, ErrBadMAC) {
					errs <- fmt.Sprintf("other key verified a frame: err = %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestCodecAllocs gates the wire path's steady state: signing into a
// buffer with spare capacity and verifying a frame allocate nothing. The
// race detector makes sync.Pool drop states at random, so the gate runs
// only without it.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	c, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	m := Message{Round: 12, From: 3, To: 7, Value: 3.14159, Instance: 9, Seq: 2}
	buf := make([]byte, 0, 4*FrameSize)
	if allocs := testing.AllocsPerRun(100, func() {
		if buf, err = c.AppendFrame(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendFrame allocates %v per frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decode allocates %v per frame, want 0", allocs)
	}
}
