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

// Frame is implemented by all parsed frames.
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

// ParseFrames parses a decrypted packet payload into frames. Runs of
// PADDING bytes are coalesced into a single PaddingFrame. It is the
// materializing wrapper over VisitFrames; streaming consumers that only
// inspect frames should visit instead and skip the allocations.
func ParseFrames(payload []byte) ([]Frame, error) {
	var frames []Frame
	var info FrameInfo
	err := VisitFrames(payload, &info, func(fi *FrameInfo) error {
		switch fi.Type {
		case FrameTypePadding:
			frames = append(frames, &PaddingFrame{Count: fi.PaddingCount})
		case FrameTypePing:
			frames = append(frames, &PingFrame{})
		case FrameTypeAck, FrameTypeAckECN:
			frames = append(frames, &AckFrame{
				Ranges:   append([]AckRange(nil), fi.Ranges...),
				DelayRaw: fi.DelayRaw,
			})
		case FrameTypeCrypto:
			frames = append(frames, &CryptoFrame{Offset: fi.CryptoOffset, Data: fi.CryptoData})
		case FrameTypeNewToken:
			frames = append(frames, &NewTokenFrame{Token: fi.Token})
		case FrameTypeConnectionClose, FrameTypeConnCloseApp:
			frames = append(frames, &ConnectionCloseFrame{
				IsApplication: fi.Type == FrameTypeConnCloseApp,
				ErrorCode:     fi.ErrorCode,
				FrameType:     fi.CloseFrameType,
				Reason:        string(fi.Reason),
			})
		case FrameTypeHandshakeDone:
			frames = append(frames, &HandshakeDoneFrame{})
		}
		return nil
	})
	return frames, err
}

// MaxCryptoFrames bounds the CRYPTO frames one packet may carry. Real
// clients send a ClientHello in one to a few frames; the bound keeps
// reassembly, whose sort is quadratic in the frame count, constant work
// per packet, although anyone can seal an Initial (the keys are public)
// and a 1 200-byte plaintext holds a few hundred one-byte frames.
const MaxCryptoFrames = 64

// CryptoAssembler reassembles the CRYPTO stream of one packet. The zero
// value is ready; Reset readies it for the next packet, reusing its
// storage.
type CryptoAssembler struct {
	segs []cryptoSeg
	buf  []byte
}

// cryptoSeg is one CRYPTO frame's extent.
type cryptoSeg struct {
	off  uint64
	data []byte
}

// Reset forgets the frames added so far.
func (a *CryptoAssembler) Reset() { a.segs = a.segs[:0] }

// Add records one CRYPTO frame; data is aliased, not copied. A packet's
// frame past MaxCryptoFrames is an error.
func (a *CryptoAssembler) Add(offset uint64, data []byte) error {
	if len(a.segs) == MaxCryptoFrames {
		return fmt.Errorf("wire: more than %d CRYPTO frames in one packet: %w", MaxCryptoFrames, ErrBadFrame)
	}
	a.segs = append(a.segs, cryptoSeg{off: offset, data: data})
	return nil
}

// Assemble returns the stream the added frames carry, which must cover
// a contiguous range starting at offset 0 (single-datagram handshake
// messages always do); nil without frames. The dominant one-frame case
// aliases the frame's data; several frames are joined in the
// assembler's buffer, valid until its next Assemble.
func (a *CryptoAssembler) Assemble() ([]byte, error) {
	segs := a.segs
	if len(segs) == 0 {
		return nil, nil
	}
	if len(segs) == 1 && segs[0].off == 0 {
		return segs[0].data, nil
	}
	// Insertion sort by offset, over at most MaxCryptoFrames segments.
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j-1].off > segs[j].off; j-- {
			segs[j-1], segs[j] = segs[j], segs[j-1]
		}
	}
	out := a.buf[:0]
	var next uint64
	for _, s := range segs {
		if s.off != next {
			return nil, fmt.Errorf("wire: crypto stream gap at %d (have %d): %w", next, s.off, ErrBadFrame)
		}
		out = append(out, s.data...)
		next += uint64(len(s.data))
	}
	a.buf = out
	return out, nil
}

// CryptoData reassembles the CRYPTO stream carried by frames (see
// CryptoAssembler).
func CryptoData(frames []Frame) ([]byte, error) {
	var a CryptoAssembler
	for _, f := range frames {
		if cf, ok := f.(*CryptoFrame); ok {
			if err := a.Add(cf.Offset, cf.Data); err != nil {
				return nil, err
			}
		}
	}
	return a.Assemble()
}
