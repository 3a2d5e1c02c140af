package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func roundTripFrames(t *testing.T, in []Frame) []Frame {
	t.Helper()
	var buf []byte
	for _, f := range in {
		buf = f.Append(buf)
	}
	out, err := ParseFrames(buf)
	if err != nil {
		t.Fatalf("ParseFrames: %v", err)
	}
	return out
}

func TestCryptoFrameRoundTrip(t *testing.T) {
	in := &CryptoFrame{Offset: 1200, Data: []byte("client hello bytes")}
	out := roundTripFrames(t, []Frame{in})
	if len(out) != 1 {
		t.Fatalf("got %d frames", len(out))
	}
	cf, ok := out[0].(*CryptoFrame)
	if !ok || cf.Offset != in.Offset || !bytes.Equal(cf.Data, in.Data) {
		t.Fatalf("got %+v", out[0])
	}
}

func TestPaddingCoalesced(t *testing.T) {
	buf := (&PingFrame{}).Append(nil)
	buf = (&PaddingFrame{Count: 37}).Append(buf)
	out, err := ParseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("frames = %d", len(out))
	}
	pad, ok := out[1].(*PaddingFrame)
	if !ok || pad.Count != 37 {
		t.Fatalf("got %+v", out[1])
	}
}

func TestAckFrameSingleRange(t *testing.T) {
	in := &AckFrame{Ranges: []AckRange{{Smallest: 3, Largest: 7}}, DelayRaw: 25}
	out := roundTripFrames(t, []Frame{in})
	ack := out[0].(*AckFrame)
	if ack.LargestAcked() != 7 || ack.DelayRaw != 25 {
		t.Fatalf("got %+v", ack)
	}
	for pn := uint64(0); pn < 10; pn++ {
		want := pn >= 3 && pn <= 7
		if ack.Acks(pn) != want {
			t.Errorf("Acks(%d) = %v", pn, !want)
		}
	}
}

func TestAckFrameMultiRange(t *testing.T) {
	in := &AckFrame{Ranges: []AckRange{
		{Smallest: 90, Largest: 100},
		{Smallest: 50, Largest: 60},
		{Smallest: 10, Largest: 10},
	}}
	out := roundTripFrames(t, []Frame{in})
	ack := out[0].(*AckFrame)
	if len(ack.Ranges) != 3 {
		t.Fatalf("ranges = %+v", ack.Ranges)
	}
	for i, r := range in.Ranges {
		if ack.Ranges[i] != r {
			t.Errorf("range %d = %+v, want %+v", i, ack.Ranges[i], r)
		}
	}
	if ack.Acks(61) || !ack.Acks(10) || !ack.Acks(95) {
		t.Error("Acks membership wrong")
	}
}

func TestAckFrameMalformed(t *testing.T) {
	// first ack range larger than largest acked ⇒ underflow.
	buf := AppendVarint(nil, uint64(FrameTypeAck))
	buf = AppendVarint(buf, 5)  // largest
	buf = AppendVarint(buf, 0)  // delay
	buf = AppendVarint(buf, 0)  // count
	buf = AppendVarint(buf, 10) // first range > largest
	if _, err := ParseFrames(buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestConnectionCloseRoundTrip(t *testing.T) {
	for _, in := range []*ConnectionCloseFrame{
		{ErrorCode: 0x0a, FrameType: 6, Reason: "PROTOCOL_VIOLATION"},
		{IsApplication: true, ErrorCode: 99, Reason: "bye"},
	} {
		out := roundTripFrames(t, []Frame{in})
		cc := out[0].(*ConnectionCloseFrame)
		if cc.IsApplication != in.IsApplication || cc.ErrorCode != in.ErrorCode || cc.Reason != in.Reason {
			t.Fatalf("got %+v want %+v", cc, in)
		}
		if !in.IsApplication && cc.FrameType != in.FrameType {
			t.Fatalf("frame type %d want %d", cc.FrameType, in.FrameType)
		}
	}
}

func TestNewTokenRoundTripAndEmptyRejected(t *testing.T) {
	out := roundTripFrames(t, []Frame{&NewTokenFrame{Token: []byte{1, 2, 3}}})
	nt := out[0].(*NewTokenFrame)
	if !bytes.Equal(nt.Token, []byte{1, 2, 3}) {
		t.Fatalf("token = %x", nt.Token)
	}
	buf := AppendVarint(nil, uint64(FrameTypeNewToken))
	buf = AppendVarint(buf, 0)
	if _, err := ParseFrames(buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty token err = %v", err)
	}
}

func TestHandshakeDoneAndPing(t *testing.T) {
	out := roundTripFrames(t, []Frame{&HandshakeDoneFrame{}, &PingFrame{}})
	if _, ok := out[0].(*HandshakeDoneFrame); !ok {
		t.Fatalf("got %T", out[0])
	}
	if _, ok := out[1].(*PingFrame); !ok {
		t.Fatalf("got %T", out[1])
	}
}

func TestUnexpectedFrameTypeRejected(t *testing.T) {
	// A STREAM frame (0x08) must not appear in handshake packets.
	buf := AppendVarint(nil, 0x08)
	if _, err := ParseFrames(buf); !errors.Is(err, ErrBadFrame) {
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
		var visitErr, parseErr error
		withinDeadline(t, fmt.Sprintf("VisitFrames(% x)", payload), func() {
			visitErr = VisitFrames(payload, &FrameInfo{}, func(*FrameInfo) error { visits++; return nil })
		})
		withinDeadline(t, fmt.Sprintf("ParseFrames(% x)", payload), func() {
			_, parseErr = ParseFrames(payload)
		})
		if !errors.Is(visitErr, ErrBadFrame) || !errors.Is(parseErr, ErrBadFrame) {
			t.Errorf("% x: VisitFrames err %v, ParseFrames err %v; want ErrBadFrame", payload, visitErr, parseErr)
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
	frames := []Frame{
		&CryptoFrame{Offset: 10, Data: []byte("world")},
		&PingFrame{},
		&CryptoFrame{Offset: 0, Data: []byte("hello, ")},
		&CryptoFrame{Offset: 7, Data: []byte("big")},
	}
	data, err := CryptoData(frames)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello, bigworld" {
		t.Fatalf("data = %q", data)
	}
}

func TestCryptoDataGap(t *testing.T) {
	_, err := CryptoData([]Frame{&CryptoFrame{Offset: 5, Data: []byte("x")}})
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestCryptoDataNone(t *testing.T) {
	data, err := CryptoData([]Frame{&PingFrame{}})
	if err != nil || data != nil {
		t.Fatalf("got %v, %v", data, err)
	}
}

// TestCryptoFrameBound: a packet's CRYPTO frames up to MaxCryptoFrames
// reassemble, in any order; one more is a malformed packet. A reset
// assembler reuses its buffer for the next packet.
func TestCryptoFrameBound(t *testing.T) {
	var a CryptoAssembler
	for round := 0; round < 2; round++ {
		a.Reset()
		want := make([]byte, MaxCryptoFrames)
		for i := MaxCryptoFrames - 1; i >= 0; i-- {
			want[i] = byte(i + round)
			if err := a.Add(uint64(i), want[i:i+1]); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		got, err := a.Assemble()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: assembled %x, %v; want %x", round, got, err, want)
		}
		if err := a.Add(MaxCryptoFrames, []byte{0}); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("frame %d accepted: %v", MaxCryptoFrames+1, err)
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
		in := &AckFrame{Ranges: ranges}
		out, err := ParseFrames(in.Append(nil))
		if err != nil || len(out) != 1 {
			return false
		}
		ack, ok := out[0].(*AckFrame)
		if !ok || len(ack.Ranges) != len(ranges) {
			return false
		}
		for i := range ranges {
			if ack.Ranges[i] != ranges[i] {
				return false
			}
		}
		return true
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

// LargestAcked returns the highest acknowledged packet number.
func (f *AckFrame) LargestAcked() uint64 {
	if len(f.Ranges) == 0 {
		return 0
	}
	return f.Ranges[0].Largest
}

// Acks reports whether packet number pn is covered by the frame.
func (f *AckFrame) Acks(pn uint64) bool {
	for _, r := range f.Ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}
