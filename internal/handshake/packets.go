// Package handshake implements the QUIC cryptographic handshake state
// machines for client and server, operating on datagrams in memory.
// Transport concerns (sockets, worker pools, retry policy) live in
// packages quicclient and quicserver.
//
// The implementation performs the full 1-RTT handshake of RFC 9000/9001
// with real packet protection at the Initial and Handshake levels and a
// real TLS 1.3 key schedule (ECDHE X25519, ECDSA-P256 certificates,
// HMAC-verified Finished). Post-handshake data transfer is out of scope
// (see DESIGN.md §7).
package handshake

import (
	"errors"
	"fmt"

	"quicsand/internal/quiccrypto"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// MinInitialDatagramSize is the minimum size of client datagrams
// carrying Initial packets (RFC 9000 §14.1). Servers must drop smaller
// ones — the anti-amplification rule the paper's §3 discusses.
const MinInitialDatagramSize = 1200

// Errors shared by the client and server state machines.
var (
	ErrUnexpectedMessage = errors.New("handshake: unexpected message")
	ErrAuthFailure       = errors.New("handshake: peer authentication failed")
	ErrVersionUnknown    = errors.New("handshake: no mutually supported version")
)

// sealLongPacket builds and protects one long-header packet. If padTo
// is positive, PADDING frames are added so the final protected packet
// is exactly padTo bytes long.
func sealLongPacket(typ wire.PacketType, version wire.Version, dcid, scid wire.ConnectionID,
	token []byte, sealer *quiccrypto.Sealer, pn uint64, frames []wire.Frame, padTo int) ([]byte, error) {

	const pnLen = 2
	b := &wire.LongHeaderBuilder{
		Type: typ, Version: version,
		DstConnID: dcid, SrcConnID: scid,
		Token: token, PktNumLen: pnLen,
	}
	var payload []byte
	for _, f := range frames {
		payload = f.Append(payload)
	}
	// The header length is invariant under payload size (2-byte Length
	// encoding), so measure it with a dry run.
	dry, err := b.AppendHeader(nil, 0)
	if err != nil {
		return nil, err
	}
	hdrLen := len(dry)
	if padTo > 0 {
		pad := padTo - (hdrLen + pnLen + len(payload) + sealer.Overhead())
		if pad > 0 {
			payload = (&wire.PaddingFrame{Count: pad}).Append(payload)
		}
	}
	// A protected packet must carry at least 4 bytes of pn+payload for
	// header-protection sampling; with pnLen=2 ensure payload ≥ 3
	// (sample starts at pnOffset+4 and needs 16 bytes which the AEAD
	// tag helps provide).
	if len(payload) < 3 {
		payload = (&wire.PaddingFrame{Count: 3 - len(payload)}).Append(payload)
	}

	pkt, err := b.AppendHeader(nil, len(payload)+sealer.Overhead())
	if err != nil {
		return nil, err
	}
	pnOffset := len(pkt)
	pkt = wire.AppendPacketNumber(pkt, pn, pnLen)
	pkt = append(pkt, payload...)
	return sealer.Seal(pkt, pnOffset, pnLen, pn)
}

// sealShortPacket builds and protects one 1-RTT short-header packet.
func sealShortPacket(dcid wire.ConnectionID, sealer *quiccrypto.Sealer, pn uint64, frames []wire.Frame) ([]byte, error) {
	const pnLen = 2
	var payload []byte
	for _, f := range frames {
		payload = f.Append(payload)
	}
	if len(payload) < 3 {
		payload = (&wire.PaddingFrame{Count: 3 - len(payload)}).Append(payload)
	}
	pkt := []byte{0x40 | byte(pnLen-1)}
	pkt = append(pkt, dcid...)
	pnOffset := len(pkt)
	pkt = wire.AppendPacketNumber(pkt, pn, pnLen)
	pkt = append(pkt, payload...)
	return sealer.Seal(pkt, pnOffset, pnLen, pn)
}

// cryptoStream reassembles CRYPTO frames for one encryption level and
// yields complete TLS handshake messages in order.
type cryptoStream struct {
	buf      []byte
	consumed uint64 // absolute stream offset of buf[0]
	pending  map[uint64][]byte
}

func newCryptoStream() *cryptoStream {
	return &cryptoStream{pending: make(map[uint64][]byte)}
}

// add ingests a CRYPTO frame; out-of-order segments are buffered.
func (cs *cryptoStream) add(f *wire.CryptoFrame) {
	switch {
	case f.Offset == cs.consumed+uint64(len(cs.buf)):
		cs.buf = append(cs.buf, f.Data...)
		// Drain any now-contiguous pending segments.
		for {
			next, ok := cs.pending[cs.consumed+uint64(len(cs.buf))]
			if !ok {
				break
			}
			delete(cs.pending, cs.consumed+uint64(len(cs.buf)))
			cs.buf = append(cs.buf, next...)
		}
	case f.Offset > cs.consumed+uint64(len(cs.buf)):
		cs.pending[f.Offset] = append([]byte(nil), f.Data...)
	default:
		// Retransmission overlap; the handshake flights we generate
		// never overlap, so ignore.
	}
}

// messages returns all complete handshake messages available and
// consumes them from the stream.
func (cs *cryptoStream) messages() []tlsmini.Message {
	var out []tlsmini.Message
	for len(cs.buf) >= 4 {
		bodyLen := int(cs.buf[1])<<16 | int(cs.buf[2])<<8 | int(cs.buf[3])
		if len(cs.buf) < 4+bodyLen {
			break
		}
		raw := append([]byte(nil), cs.buf[:4+bodyLen]...)
		out = append(out, tlsmini.Message{
			Type: tlsmini.HandshakeType(raw[0]),
			Raw:  raw,
			Body: raw[4:],
		})
		cs.buf = cs.buf[4+bodyLen:]
		cs.consumed += uint64(4 + bodyLen)
	}
	return out
}

// splitCrypto splits a crypto stream into CRYPTO frames of at most
// maxData bytes each, preserving offsets starting at base.
func splitCrypto(stream []byte, base uint64, maxData int) []*wire.CryptoFrame {
	var frames []*wire.CryptoFrame
	off := base
	for len(stream) > 0 {
		n := len(stream)
		if n > maxData {
			n = maxData
		}
		frames = append(frames, &wire.CryptoFrame{Offset: off, Data: stream[:n]})
		stream = stream[n:]
		off += uint64(n)
	}
	return frames
}

// negotiateVersion picks the first of ours present in theirs.
func negotiateVersion(ours, theirs []wire.Version) (wire.Version, error) {
	for _, o := range ours {
		for _, t := range theirs {
			if o == t {
				return o, nil
			}
		}
	}
	return 0, ErrVersionUnknown
}

// ackFor builds a minimal ACK frame for a single packet number.
func ackFor(pn uint64) *wire.AckFrame {
	return &wire.AckFrame{Ranges: []wire.AckRange{{Smallest: pn, Largest: pn}}}
}

func describeVersion(v wire.Version) error {
	if !v.Known() {
		return fmt.Errorf("handshake: unsupported version %v", v)
	}
	return nil
}
