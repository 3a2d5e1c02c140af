package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// visitAll walks buf with VisitFrames and returns a copy of every visit.
func visitAll(buf []byte) ([]FrameInfo, error) {
	var out []FrameInfo
	err := VisitFrames(buf, &FrameInfo{}, func(fi *FrameInfo) error {
		c := *fi
		c.Ranges = slices.Clone(fi.Ranges)
		out = append(out, c)
		return nil
	})
	return out, err
}

// roundTripFrames appends in and walks the bytes back.
func roundTripFrames(t *testing.T, in ...Frame) []FrameInfo {
	t.Helper()
	var buf []byte
	for _, f := range in {
		buf = f.Append(buf)
	}
	out, err := visitAll(buf)
	if err != nil {
		t.Fatalf("VisitFrames: %v", err)
	}
	return out
}

func TestCryptoFrameRoundTrip(t *testing.T) {
	in := &CryptoFrame{Offset: 1200, Data: []byte("client hello bytes")}
	out := roundTripFrames(t, in)
	if len(out) != 1 {
		t.Fatalf("got %d frames", len(out))
	}
	if cf := out[0]; cf.Type != FrameTypeCrypto || cf.CryptoOffset != in.Offset || !bytes.Equal(cf.CryptoData, in.Data) {
		t.Fatalf("got %+v", cf)
	}
}

func TestPaddingCoalesced(t *testing.T) {
	out := roundTripFrames(t, &PingFrame{}, &PaddingFrame{Count: 37})
	if len(out) != 2 {
		t.Fatalf("frames = %d", len(out))
	}
	if pad := out[1]; pad.Type != FrameTypePadding || pad.PaddingCount != 37 {
		t.Fatalf("got %+v", pad)
	}
}

// acks reports whether ranges cover packet number pn.
func acks(ranges []AckRange, pn uint64) bool {
	for _, r := range ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}

func TestAckFrameSingleRange(t *testing.T) {
	in := &AckFrame{Ranges: []AckRange{{Smallest: 3, Largest: 7}}, DelayRaw: 25}
	ack := roundTripFrames(t, in)[0]
	if ack.Type != FrameTypeAck || ack.Ranges[0].Largest != 7 || ack.DelayRaw != 25 {
		t.Fatalf("got %+v", ack)
	}
	for pn := uint64(0); pn < 10; pn++ {
		want := pn >= 3 && pn <= 7
		if acks(ack.Ranges, pn) != want {
			t.Errorf("acks(%d) = %v", pn, !want)
		}
	}
}

func TestAckFrameMultiRange(t *testing.T) {
	in := &AckFrame{Ranges: []AckRange{
		{Smallest: 90, Largest: 100},
		{Smallest: 50, Largest: 60},
		{Smallest: 10, Largest: 10},
	}}
	ack := roundTripFrames(t, in)[0]
	if !slices.Equal(ack.Ranges, in.Ranges) {
		t.Fatalf("ranges = %+v, want %+v", ack.Ranges, in.Ranges)
	}
	if acks(ack.Ranges, 61) || !acks(ack.Ranges, 10) || !acks(ack.Ranges, 95) {
		t.Error("ack membership wrong")
	}
}

func TestAckFrameMalformed(t *testing.T) {
	// first ack range larger than largest acked ⇒ underflow.
	buf := AppendVarint(nil, uint64(FrameTypeAck))
	buf = AppendVarint(buf, 5)  // largest
	buf = AppendVarint(buf, 0)  // delay
	buf = AppendVarint(buf, 0)  // count
	buf = AppendVarint(buf, 10) // first range > largest
	if _, err := visitAll(buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestConnectionCloseRoundTrip(t *testing.T) {
	for _, in := range []*ConnectionCloseFrame{
		{ErrorCode: 0x0a, FrameType: 6, Reason: "PROTOCOL_VIOLATION"},
		{IsApplication: true, ErrorCode: 99, Reason: "bye"},
	} {
		cc := roundTripFrames(t, in)[0]
		if cc.Type != in.Type() || cc.ErrorCode != in.ErrorCode || string(cc.Reason) != in.Reason {
			t.Fatalf("got %+v want %+v", cc, in)
		}
		if !in.IsApplication && cc.CloseFrameType != in.FrameType {
			t.Fatalf("frame type %d want %d", cc.CloseFrameType, in.FrameType)
		}
	}
}

func TestNewTokenRoundTripAndEmptyRejected(t *testing.T) {
	nt := roundTripFrames(t, &NewTokenFrame{Token: []byte{1, 2, 3}})[0]
	if nt.Type != FrameTypeNewToken || !bytes.Equal(nt.Token, []byte{1, 2, 3}) {
		t.Fatalf("token = %x", nt.Token)
	}
	buf := AppendVarint(nil, uint64(FrameTypeNewToken))
	buf = AppendVarint(buf, 0)
	if _, err := visitAll(buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty token err = %v", err)
	}
}

func TestHandshakeDoneAndPing(t *testing.T) {
	out := roundTripFrames(t, &HandshakeDoneFrame{}, &PingFrame{})
	if len(out) != 2 || out[0].Type != FrameTypeHandshakeDone || out[1].Type != FrameTypePing {
		t.Fatalf("got %+v", out)
	}
}

func TestUnexpectedFrameTypeRejected(t *testing.T) {
	// A STREAM frame (0x08) must not appear in handshake packets.
	buf := AppendVarint(nil, 0x08)
	if _, err := visitAll(buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

// withinDeadline runs f and fails the test if it has not returned
// within five seconds.
func withinDeadline(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5 s", what)
	}
}

// TestNonShortestFrameTypeRejected: a frame type in a longer varint than
// its value needs is a PROTOCOL_VIOLATION (RFC 9000 §12.4). The first
// case is PADDING's type 0 written in two bytes, which a PADDING run
// consumes nothing of: the walk must reject it, not spin on it.
func TestNonShortestFrameTypeRejected(t *testing.T) {
	for _, payload := range [][]byte{
		{0x40, 0x00, 0x12},
		{0x40, 0x01},                   // PING
		{0x80, 0x00, 0x00, 0x1e},       // HANDSHAKE_DONE
		{0x00, 0x00, 0x40, 0x00, 0x00}, // padding, then padding in two bytes
	} {
		visits := 0
		var visitErr error
		withinDeadline(t, fmt.Sprintf("VisitFrames(% x)", payload), func() {
			visitErr = VisitFrames(payload, &FrameInfo{}, func(*FrameInfo) error { visits++; return nil })
		})
		if !errors.Is(visitErr, ErrBadFrame) {
			t.Errorf("% x: VisitFrames err %v; want ErrBadFrame", payload, visitErr)
		}
		if visits > len(payload) {
			t.Errorf("% x: %d visits over %d bytes", payload, visits, len(payload))
		}
	}
}

// TestVisitsBoundedByPayload: whatever the bytes, a walk makes at most
// one visit per payload byte.
func TestVisitsBoundedByPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0x00, 0x01, 0x02, 0x06, 0x1e, 0x40, 0x80, 0xc0, 0x03, 0x07}
	for i := 0; i < 20000; i++ {
		payload := make([]byte, 1+rng.Intn(24))
		for j := range payload {
			payload[j] = alphabet[rng.Intn(len(alphabet))]
		}
		visits := 0
		VisitFrames(payload, &FrameInfo{}, func(*FrameInfo) error { visits++; return nil })
		if visits > len(payload) {
			t.Fatalf("% x: %d visits over %d bytes", payload, visits, len(payload))
		}
	}
}

func TestCryptoDataReassembly(t *testing.T) {
	var s CryptoStream
	for _, f := range []CryptoFrame{
		{Offset: 10, Data: []byte("world")},
		{Offset: 0, Data: []byte("hello, ")},
		{Offset: 7, Data: []byte("big")},
		{Offset: 3, Data: []byte("lo")}, // a retransmission
	} {
		if err := s.Add(f.Offset, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Contiguous(); string(got) != "hello, bigworld" || s.Buffered() != len(got) {
		t.Fatalf("contiguous %q, %d buffered", got, s.Buffered())
	}
}

// TestCryptoDataGap: bytes past a gap are buffered but not contiguous.
func TestCryptoDataGap(t *testing.T) {
	var s CryptoStream
	if err := s.Add(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(s.Contiguous()) != 0 || s.Buffered() != 1 {
		t.Fatalf("contiguous %q, %d buffered; want a gap", s.Contiguous(), s.Buffered())
	}
}

func TestCryptoDataNone(t *testing.T) {
	var s CryptoStream
	if len(s.Contiguous()) != 0 || s.Buffered() != 0 {
		t.Fatalf("empty stream: contiguous %q, %d buffered", s.Contiguous(), s.Buffered())
	}
}

// TestCryptoFrameBound: up to MaxCryptoFrames frames between two reads
// reassemble, in any order; one more is a malformed packet. A reset
// stream reuses its buffer for the next packet, and a discard opens the
// next packet's count.
func TestCryptoFrameBound(t *testing.T) {
	var s CryptoStream
	for round := 0; round < 3; round++ {
		if round < 2 {
			s.Reset()
		} else {
			s.Discard(MaxCryptoFrames)
		}
		base := uint64(round / 2 * MaxCryptoFrames)
		want := make([]byte, MaxCryptoFrames)
		for i := MaxCryptoFrames - 1; i >= 0; i-- {
			want[i] = byte(i + round)
			if err := s.Add(base+uint64(i), want[i:i+1]); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if got := s.Contiguous(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: assembled %x; want %x", round, got, want)
		}
		if err := s.Add(base+MaxCryptoFrames, []byte{0}); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("frame %d accepted: %v", MaxCryptoFrames+1, err)
		}
	}
}

// TestCryptoBufferBound: a stream takes data up to MaxCryptoBuffer past
// its first unread byte, contiguous or not, and no further; reading
// frees room.
func TestCryptoBufferBound(t *testing.T) {
	var s CryptoStream
	if err := s.Add(MaxCryptoBuffer-1, []byte{1}); err != nil {
		t.Fatalf("last byte in bound: %v", err)
	}
	if err := s.Add(MaxCryptoBuffer, []byte{1}); !errors.Is(err, ErrCryptoBufferExceeded) {
		t.Fatalf("first byte past the bound: %v", err)
	}
	if err := s.Add(0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Discard(1000)
	if err := s.Add(MaxCryptoBuffer, make([]byte, 1000)); err != nil || s.Buffered() != 1001 {
		t.Fatalf("after reading 1000 bytes: %v, %d buffered", err, s.Buffered())
	}
	if err := s.Add(1000+MaxCryptoBuffer, []byte{1}); !errors.Is(err, ErrCryptoBufferExceeded) {
		t.Fatalf("first byte past the moved bound: %v", err)
	}
}

// TestCryptoStreamMatchesStream cuts random streams into overlapping,
// shuffled frames delivered over several packets and reads them as a
// Handshake level does: the contiguous bytes are always the stream's
// next ones, and the stream never buffers more than its bound.
func TestCryptoStreamMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		stream := make([]byte, 1+rng.Intn(3*MaxCryptoBuffer))
		rng.Read(stream)
		var frames []CryptoFrame
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(1500)
			lo := max(0, off-rng.Intn(8)) // some frames overlap the last
			hi := min(len(stream), off+n)
			frames = append(frames, CryptoFrame{Offset: uint64(lo), Data: stream[lo:hi]})
			off = hi
		}
		var s CryptoStream
		read := 0
		for len(frames) > 0 {
			k := min(len(frames), 1+rng.Intn(4)) // one packet's frames
			pkt := frames[:k]
			rng.Shuffle(len(pkt), func(i, j int) { pkt[i], pkt[j] = pkt[j], pkt[i] })
			for _, f := range pkt {
				if err := s.Add(f.Offset, f.Data); errors.Is(err, ErrCryptoBufferExceeded) {
					frames = append(frames, f) // resend once there is room
				} else if err != nil {
					t.Fatal(err)
				}
			}
			frames = frames[k:]
			if s.Buffered() > MaxCryptoBuffer {
				t.Fatalf("trial %d: %d bytes buffered", trial, s.Buffered())
			}
			got := s.Contiguous()
			if !bytes.Equal(got, stream[read:read+len(got)]) {
				t.Fatalf("trial %d: contiguous bytes at %d differ", trial, read)
			}
			n := rng.Intn(len(got) + 1)
			s.Discard(n)
			read += n
		}
		if s.Discard(len(s.Contiguous())); s.Buffered() != 0 {
			t.Fatalf("trial %d: %d bytes left past a gap", trial, s.Buffered())
		}
	}
}

func TestAckRoundTripProperty(t *testing.T) {
	f := func(seed []uint16) bool {
		if len(seed) == 0 {
			return true
		}
		// Build strictly descending, non-adjacent ranges from the seed.
		ranges := []AckRange{}
		next := uint64(1 << 30)
		for _, s := range seed {
			size := uint64(s % 100)
			largest := next
			smallest := largest - size
			ranges = append(ranges, AckRange{Smallest: smallest, Largest: largest})
			if smallest < 1000 {
				break
			}
			next = smallest - 2 - uint64(s%37) // gap ≥ 0 on the wire
		}
		out, err := visitAll((&AckFrame{Ranges: ranges}).Append(nil))
		return err == nil && len(out) == 1 && slices.Equal(out[0].Ranges, ranges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameTypeValues(t *testing.T) {
	if got := (&ConnectionCloseFrame{}).Type(); got != FrameTypeConnectionClose {
		t.Errorf("transport close type = %v", got)
	}
	if (&ConnectionCloseFrame{IsApplication: true}).Type() != FrameTypeConnCloseApp {
		t.Error("application close type")
	}
}

// The program writes neither of the two frames below; the walk's tests
// encode them to read them back.

// NewTokenFrame delivers an address-validation token for a future
// connection (used with adaptive RETRY deployments).
type NewTokenFrame struct {
	Token []byte
}

// Append implements Frame.
func (f *NewTokenFrame) Append(dst []byte) []byte {
	dst = AppendVarint(dst, uint64(FrameTypeNewToken))
	dst = AppendVarint(dst, uint64(len(f.Token)))
	return append(dst, f.Token...)
}

// ConnectionCloseFrame signals connection termination with an error.
type ConnectionCloseFrame struct {
	IsApplication bool
	ErrorCode     uint64
	FrameType     uint64 // transport closes only
	Reason        string
}

// Type returns the frame's wire type: the transport or the application
// variant.
func (f *ConnectionCloseFrame) Type() FrameType {
	if f.IsApplication {
		return FrameTypeConnCloseApp
	}
	return FrameTypeConnectionClose
}

// Append implements Frame.
func (f *ConnectionCloseFrame) Append(dst []byte) []byte {
	dst = AppendVarint(dst, uint64(f.Type()))
	dst = AppendVarint(dst, f.ErrorCode)
	if !f.IsApplication {
		dst = AppendVarint(dst, f.FrameType)
	}
	dst = AppendVarint(dst, uint64(len(f.Reason)))
	return append(dst, f.Reason...)
}
