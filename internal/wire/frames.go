package wire

import (
	"errors"
	"fmt"
)

// FrameType enumerates the QUIC frame types relevant to handshake-phase
// traffic (RFC 9000 §19). Stream and flow-control frames are recognized
// but not modelled structurally, since no experiment in the paper
// reaches the data phase.
type FrameType uint64

// Frame type codepoints, RFC 9000 Table 3.
const (
	FrameTypePadding         FrameType = 0x00
	FrameTypePing            FrameType = 0x01
	FrameTypeAck             FrameType = 0x02
	FrameTypeAckECN          FrameType = 0x03
	FrameTypeResetStream     FrameType = 0x04
	FrameTypeStopSending     FrameType = 0x05
	FrameTypeCrypto          FrameType = 0x06
	FrameTypeNewToken        FrameType = 0x07
	FrameTypeStreamBase      FrameType = 0x08 // 0x08–0x0f
	FrameTypeMaxData         FrameType = 0x10
	FrameTypeConnectionClose FrameType = 0x1c
	FrameTypeConnCloseApp    FrameType = 0x1d
	FrameTypeHandshakeDone   FrameType = 0x1e
)

// ErrBadFrame reports a structurally invalid frame.
var ErrBadFrame = errors.New("wire: malformed frame")

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameTypePadding:
		return "PADDING"
	case FrameTypePing:
		return "PING"
	case FrameTypeAck, FrameTypeAckECN:
		return "ACK"
	case FrameTypeCrypto:
		return "CRYPTO"
	case FrameTypeNewToken:
		return "NEW_TOKEN"
	case FrameTypeConnectionClose, FrameTypeConnCloseApp:
		return "CONNECTION_CLOSE"
	case FrameTypeHandshakeDone:
		return "HANDSHAKE_DONE"
	}
	return fmt.Sprintf("FRAME(%#x)", uint64(t))
}

// Frame is a frame to write into a packet; VisitFrames reads them back.
type Frame interface {
	// Append serializes the frame.
	Append(dst []byte) []byte
}

// PaddingFrame represents one or more consecutive PADDING bytes.
type PaddingFrame struct {
	// Count is the number of consecutive zero bytes.
	Count int
}

// Append implements Frame.
func (f *PaddingFrame) Append(dst []byte) []byte {
	for i := 0; i < f.Count; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// PingFrame elicits an acknowledgment. The NGINX response pattern in
// Table 1 includes two keep-alive PINGs per handshake.
type PingFrame struct{}

// Append implements Frame.
func (f *PingFrame) Append(dst []byte) []byte { return append(dst, byte(FrameTypePing)) }

// AckRange is a closed packet-number interval [Smallest, Largest].
type AckRange struct {
	Smallest uint64
	Largest  uint64
}

// AckFrame acknowledges received packet numbers.
type AckFrame struct {
	// Ranges are ordered from the highest-numbered range downwards,
	// matching the wire encoding. Must be non-empty to serialize.
	Ranges   []AckRange
	DelayRaw uint64
}

// Append implements Frame.
func (f *AckFrame) Append(dst []byte) []byte {
	if len(f.Ranges) == 0 {
		panic("wire: ACK frame without ranges")
	}
	dst = AppendVarint(dst, uint64(FrameTypeAck))
	dst = AppendVarint(dst, f.Ranges[0].Largest)
	dst = AppendVarint(dst, f.DelayRaw)
	dst = AppendVarint(dst, uint64(len(f.Ranges)-1))
	dst = AppendVarint(dst, f.Ranges[0].Largest-f.Ranges[0].Smallest)
	prevSmallest := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		gap := prevSmallest - r.Largest - 2
		dst = AppendVarint(dst, gap)
		dst = AppendVarint(dst, r.Largest-r.Smallest)
		prevSmallest = r.Smallest
	}
	return dst
}

// CryptoFrame carries TLS handshake bytes at a given offset in the
// handshake stream.
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

// Append implements Frame.
func (f *CryptoFrame) Append(dst []byte) []byte {
	dst = AppendVarint(dst, uint64(FrameTypeCrypto))
	dst = AppendVarint(dst, f.Offset)
	dst = AppendVarint(dst, uint64(len(f.Data)))
	return append(dst, f.Data...)
}

// HandshakeDoneFrame confirms the handshake to the client.
type HandshakeDoneFrame struct{}

// Append implements Frame.
func (f *HandshakeDoneFrame) Append(dst []byte) []byte {
	return AppendVarint(dst, uint64(FrameTypeHandshakeDone))
}

// FrameInfo is the reusable per-frame record VisitFrames fills in.
// Only the fields of the current Type are meaningful; slice fields
// alias either the payload (CryptoData, Token, Reason) or the visitor's
// scratch storage (Ranges) and must be copied to outlive the visit.
type FrameInfo struct {
	Type FrameType

	// PADDING: number of coalesced zero bytes.
	PaddingCount int

	// ACK / ACK_ECN.
	Ranges   []AckRange
	DelayRaw uint64

	// CRYPTO.
	CryptoOffset uint64
	CryptoData   []byte

	// NEW_TOKEN.
	Token []byte

	// CONNECTION_CLOSE.
	ErrorCode      uint64
	CloseFrameType uint64
	Reason         []byte
}

// VisitFrames walks a decrypted packet payload frame by frame without
// materializing Frame values — the telescope's per-packet hot path.
// info is caller-owned scratch reused for every frame (its Ranges
// backing array is recycled across frames and calls); visit observes
// each frame in wire order and may stop the walk by returning an error.
// Runs of PADDING bytes coalesce into one visit. Frame types the
// handshake never carries (streams, flow control) produce an error,
// matching the dissector's strict validation role, and so does a frame
// type not in its shortest encoding (RFC 9000 §12.4): every visit then
// consumes at least one byte, so a payload of n bytes makes at most n
// visits.
func VisitFrames(payload []byte, info *FrameInfo, visit func(*FrameInfo) error) error {
	for len(payload) > 0 {
		ft, n, err := ConsumeVarint(payload)
		if err != nil {
			return err
		}
		if n != VarintLen(ft) {
			return fmt.Errorf("wire: frame type %#x in a %d-byte encoding: %w", ft, n, ErrBadFrame)
		}
		info.Type = FrameType(ft)
		switch FrameType(ft) {
		case FrameTypePadding:
			count := 0
			for len(payload) > 0 && payload[0] == 0 {
				count++
				payload = payload[1:]
			}
			info.PaddingCount = count
			if err := visit(info); err != nil {
				return err
			}
			continue
		case FrameTypePing, FrameTypeHandshakeDone:
			payload = payload[n:]
		case FrameTypeAck, FrameTypeAckECN:
			payload = payload[n:]
			info.Ranges = info.Ranges[:0]
			largest, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			info.DelayRaw, n, err = ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			rangeCount, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			firstRange, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			if firstRange > largest {
				return fmt.Errorf("wire: ack range underflow: %w", ErrBadFrame)
			}
			info.Ranges = append(info.Ranges, AckRange{Smallest: largest - firstRange, Largest: largest})
			smallest := largest - firstRange
			for i := uint64(0); i < rangeCount; i++ {
				gap, n, err := ConsumeVarint(payload)
				if err != nil {
					return err
				}
				payload = payload[n:]
				rlen, n, err := ConsumeVarint(payload)
				if err != nil {
					return err
				}
				payload = payload[n:]
				if gap+2 > smallest {
					return fmt.Errorf("wire: ack gap underflow: %w", ErrBadFrame)
				}
				largest = smallest - gap - 2
				if rlen > largest {
					return fmt.Errorf("wire: ack range underflow: %w", ErrBadFrame)
				}
				smallest = largest - rlen
				info.Ranges = append(info.Ranges, AckRange{Smallest: smallest, Largest: largest})
			}
			if FrameType(ft) == FrameTypeAckECN {
				for i := 0; i < 3; i++ { // ECT0, ECT1, CE counts
					_, n, err := ConsumeVarint(payload)
					if err != nil {
						return err
					}
					payload = payload[n:]
				}
			}
		case FrameTypeCrypto:
			payload = payload[n:]
			off, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			dlen, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			if uint64(len(payload)) < dlen {
				return ErrTruncated
			}
			info.CryptoOffset = off
			info.CryptoData = payload[:dlen]
			payload = payload[dlen:]
		case FrameTypeNewToken:
			payload = payload[n:]
			tlen, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			if uint64(len(payload)) < tlen || tlen == 0 {
				return fmt.Errorf("wire: NEW_TOKEN length %d: %w", tlen, ErrBadFrame)
			}
			info.Token = payload[:tlen]
			payload = payload[tlen:]
		case FrameTypeConnectionClose, FrameTypeConnCloseApp:
			payload = payload[n:]
			info.ErrorCode, n, err = ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			info.CloseFrameType = 0
			if FrameType(ft) == FrameTypeConnectionClose {
				info.CloseFrameType, n, err = ConsumeVarint(payload)
				if err != nil {
					return err
				}
				payload = payload[n:]
			}
			rlen, n, err := ConsumeVarint(payload)
			if err != nil {
				return err
			}
			payload = payload[n:]
			if uint64(len(payload)) < rlen {
				return ErrTruncated
			}
			info.Reason = payload[:rlen]
			payload = payload[rlen:]
		default:
			return fmt.Errorf("wire: unexpected frame type %#x in handshake packet: %w", ft, ErrBadFrame)
		}
		if err := visit(info); err != nil {
			return err
		}
	}
	return nil
}

// MaxCryptoFrames bounds the CRYPTO frames a CryptoStream takes between
// two reads (Reset or Discard). Its readers read after every packet, so
// it bounds one packet's frames: real clients send a ClientHello in one
// to a few, while anyone can seal an Initial (the keys are public) and a
// 1 200-byte plaintext holds a few hundred one-byte frames.
const MaxCryptoFrames = 64

// MaxCryptoBuffer bounds what a CryptoStream buffers (RFC 9000 §7.5,
// which asks for at least 4 096 bytes): no byte it holds lies
// MaxCryptoBuffer or more past the first unread one, so the contiguous
// bytes not yet read plus those past a gap never exceed it. 16 KiB holds
// a real server's certificate chain in one message; the generator's
// whole Handshake-level flight is 1 761 bytes.
const MaxCryptoBuffer = 16 << 10

// ErrCryptoBufferExceeded is RFC 9000's CRYPTO_BUFFER_EXCEEDED: CRYPTO
// data ends more than MaxCryptoBuffer past the first unread byte.
var ErrCryptoBufferExceeded = errors.New("wire: CRYPTO_BUFFER_EXCEEDED")

// CryptoStream reassembles one CRYPTO stream (RFC 9000 §19.6) from
// frames in any order, within MaxCryptoBuffer. A per-packet reader (the
// dissector, the Initial level) resets it for each packet; a per-level
// one (the Handshake level) keeps it across packets and discards what it
// has read after each. The zero value is ready.
type CryptoStream struct {
	base   uint64 // stream offset of buf[0]: every byte before it was read
	buf    []byte // stream bytes from base up to the furthest frame end
	got    []bool // got[i], i >= next: buf[i] has arrived
	next   int    // buf[:next] is the contiguous run
	held   int    // arrived bytes in buf
	frames int    // frames added since the last Reset or Discard
}

// Reset empties the stream back to offset 0, keeping its storage.
func (s *CryptoStream) Reset() { *s = CryptoStream{buf: s.buf[:0], got: s.got[:0]} }

// Add copies one CRYPTO frame's data into the stream. Bytes it already
// holds in the contiguous run, or that were read, are a retransmission
// and ignored. Frame MaxCryptoFrames+1 since the last read fails with
// ErrBadFrame, and data ending more than MaxCryptoBuffer past the first
// unread byte with ErrCryptoBufferExceeded.
func (s *CryptoStream) Add(offset uint64, data []byte) error {
	if s.frames == MaxCryptoFrames {
		return fmt.Errorf("wire: more than %d CRYPTO frames in one packet: %w", MaxCryptoFrames, ErrBadFrame)
	}
	s.frames++
	run, end := s.base+uint64(s.next), offset+uint64(len(data))
	if end <= run {
		return nil
	}
	if end-s.base > MaxCryptoBuffer {
		return fmt.Errorf("wire: CRYPTO data to offset %d, %d bytes past the first unread one: %w",
			end, end-s.base, ErrCryptoBufferExceeded)
	}
	if offset < run {
		data, offset = data[run-offset:], run
	}
	lo := int(offset - s.base)
	if lo == len(s.buf) && lo == s.next { // extends the run, and nothing lies past it
		s.buf = append(s.buf, data...)
		s.got = append(s.got, make([]bool, len(data))...)
		s.next, s.held = len(s.buf), s.held+len(data)
		return nil
	}
	hi := lo + len(data)
	if hi > len(s.buf) {
		s.buf = append(s.buf, make([]byte, hi-len(s.buf))...)
		s.got = append(s.got, make([]bool, hi-len(s.got))...)
	}
	copy(s.buf[lo:], data)
	for i := lo; i < hi; i++ {
		if !s.got[i] {
			s.got[i] = true
			s.held++
		}
	}
	for s.next < len(s.buf) && s.got[s.next] {
		s.next++
	}
	return nil
}

// Contiguous returns the unread bytes that arrived without a gap. It
// aliases the stream's buffer, valid until the next Add, Discard or
// Reset.
func (s *CryptoStream) Contiguous() []byte { return s.buf[:s.next] }

// Buffered returns how many bytes the stream holds: the contiguous
// unread ones and any past a gap, so more than len(Contiguous()) means
// the frames so far leave a gap.
func (s *CryptoStream) Buffered() int { return s.held }

// Discard marks the first n contiguous bytes read (n ≤
// len(Contiguous())), freeing their room, and starts a new packet's
// frame count.
func (s *CryptoStream) Discard(n int) {
	m := copy(s.buf, s.buf[n:])
	copy(s.got, s.got[n:])
	s.buf, s.got = s.buf[:m], s.got[:m]
	s.base += uint64(n)
	s.next -= n
	s.held -= n
	s.frames = 0
}
