// Package transport provides the authenticated reliable point-to-point
// channels the paper assumes as a primitive (§3): an in-memory transport
// for single-process clusters and a TCP transport with per-message
// HMAC-SHA256 authentication for real multi-socket deployments. Messages
// are fixed-size binary frames; tampered or replayed frames are rejected at
// the link layer, never reaching the protocol.
//
// The TCP wire path does little work per frame. Codec pools its keyed MAC
// states, so signing and verifying neither re-hash the key nor allocate.
// AppendFrame signs a frame straight into the peer writer's batch buffer.
// Readers take frames through a buffered reader that holds 64 of them. A
// node's frames to itself go through an in-process queue to its own
// inbox: no codec, no dial, no socket.
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"slices"
	"sync"
)

// Message is one protocol message: a round-stamped vote (or an explicit
// omission marker, the synchronous-round encoding of deliberate silence).
type Message struct {
	Round    int
	From, To int
	Value    float64
	Omitted  bool
	// Instance identifies which agreement instance the message belongs to
	// when many run over one mesh (the service layer's demux key). A
	// single-instance deployment leaves it 0.
	Instance uint32
	// Seq is the sender-chosen per-(round,to) sequence number used for
	// replay rejection; the protocol sends exactly one message per round
	// and destination, so Seq is 0 in normal operation. The service layer
	// stamps it with the instance registration epoch so frames from a
	// retired incarnation of a reused instance id never alias fresh ones.
	Seq uint32
}

// Frame layout (big-endian), version 2:
//
//	magic(2) version(1) flags(1) round(8) from(4) to(4) instance(4) seq(4) value(8) mac(32)
//
// Version 1 lacked the instance field; v1 frames are rejected with a typed
// *VersionError rather than silently misparsed.
const (
	frameMagic   = 0x4d42 // "MB"
	frameVersion = 2

	flagOmitted = 1 << 0

	macSize   = sha256.Size
	headerLen = 2 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 8
	// FrameSize is the fixed wire size of every message.
	FrameSize = headerLen + macSize
)

// Codec errors.
var (
	ErrShortFrame = errors.New("transport: short frame")
	ErrBadMagic   = errors.New("transport: bad magic")
	ErrBadVersion = errors.New("transport: unsupported frame version")
	ErrBadMAC     = errors.New("transport: HMAC verification failed")
	ErrBadValue   = errors.New("transport: NaN value on the wire")
)

// VersionError reports a frame whose version byte does not match the codec's.
// It wraps ErrBadVersion, so errors.Is(err, ErrBadVersion) keeps working for
// callers that only care about the class.
type VersionError struct {
	Got  byte // version byte on the wire
	Want byte // version this codec speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("transport: unsupported frame version %d (want %d)", e.Got, e.Want)
}

// Unwrap ties VersionError to the ErrBadVersion sentinel.
func (e *VersionError) Unwrap() error { return ErrBadVersion }

// Codec encodes and authenticates messages with a shared symmetric key.
// The zero value is unusable; construct with NewCodec. A Codec is safe for
// concurrent use: each Encode, AppendFrame or Decode borrows a keyed MAC
// state from the Codec's pool, so no call re-hashes the key or allocates
// one.
type Codec struct {
	key  []byte
	macs sync.Pool // *macState keyed with key
}

// macState is one pooled keyed HMAC-SHA256 state and the array its sum is
// written into. Reset restores the keyed (ipad) state without touching the
// key again.
type macState struct {
	h   hash.Hash
	sum [macSize]byte
}

// NewCodec returns a Codec using the given shared key. The key is copied.
// An empty key is rejected: unauthenticated channels would silently void
// the paper's model assumptions.
func NewCodec(key []byte) (*Codec, error) {
	if len(key) == 0 {
		return nil, errors.New("transport: empty authentication key")
	}
	c := &Codec{key: append([]byte(nil), key...)}
	c.macs.New = func() any { return &macState{h: hmac.New(sha256.New, c.key)} }
	return c, nil
}

// mac computes the MAC of header into a pooled state's sum. The caller
// returns the state with c.macs.Put once it has read the sum.
func (c *Codec) mac(header []byte) *macState {
	s := c.macs.Get().(*macState)
	s.h.Reset()
	s.h.Write(header)
	s.h.Sum(s.sum[:0])
	return s
}

// checkValue is the one value rule of the wire: a NaN vote cannot be sent,
// while an omission's value is ignored (and encoded as 0).
func checkValue(m Message) error {
	if math.IsNaN(m.Value) && !m.Omitted {
		return ErrBadValue
	}
	return nil
}

// Encode serializes and signs a message into a fresh FrameSize-byte frame.
func (c *Codec) Encode(m Message) ([]byte, error) {
	return c.AppendFrame(make([]byte, 0, FrameSize), m)
}

// AppendFrame serializes and signs m, appending the FrameSize-byte frame to
// dst. With FrameSize bytes of spare capacity in dst it allocates nothing.
// On error dst is returned unchanged.
func (c *Codec) AppendFrame(dst []byte, m Message) ([]byte, error) {
	if err := checkValue(m); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, FrameSize)
	buf := dst[len(dst) : len(dst)+FrameSize]
	binary.BigEndian.PutUint16(buf[0:2], frameMagic)
	buf[2] = frameVersion
	var flags byte
	if m.Omitted {
		flags |= flagOmitted
	}
	buf[3] = flags
	binary.BigEndian.PutUint64(buf[4:12], uint64(m.Round))
	binary.BigEndian.PutUint32(buf[12:16], uint32(m.From))
	binary.BigEndian.PutUint32(buf[16:20], uint32(m.To))
	binary.BigEndian.PutUint32(buf[20:24], m.Instance)
	binary.BigEndian.PutUint32(buf[24:28], m.Seq)
	value := m.Value
	if m.Omitted {
		value = 0 // canonical encoding: omissions carry no value
	}
	binary.BigEndian.PutUint64(buf[28:36], math.Float64bits(value))
	s := c.mac(buf[:headerLen])
	copy(buf[headerLen:], s.sum[:])
	c.macs.Put(s)
	return dst[:len(dst)+FrameSize], nil
}

// Decode verifies and parses a frame.
func (c *Codec) Decode(frame []byte) (Message, error) {
	if len(frame) < FrameSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if binary.BigEndian.Uint16(frame[0:2]) != frameMagic {
		return Message{}, ErrBadMagic
	}
	if frame[2] != frameVersion {
		return Message{}, &VersionError{Got: frame[2], Want: frameVersion}
	}
	s := c.mac(frame[:headerLen])
	ok := hmac.Equal(s.sum[:], frame[headerLen:FrameSize])
	c.macs.Put(s)
	if !ok {
		return Message{}, ErrBadMAC
	}
	m := Message{
		Round:    int(binary.BigEndian.Uint64(frame[4:12])),
		From:     int(binary.BigEndian.Uint32(frame[12:16])),
		To:       int(binary.BigEndian.Uint32(frame[16:20])),
		Instance: binary.BigEndian.Uint32(frame[20:24]),
		Seq:      binary.BigEndian.Uint32(frame[24:28]),
		Value:    math.Float64frombits(binary.BigEndian.Uint64(frame[28:36])),
	}
	if frame[3]&flagOmitted != 0 {
		m.Omitted = true
		m.Value = 0
	}
	if math.IsNaN(m.Value) {
		return Message{}, ErrBadValue
	}
	return m, nil
}
