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

// addCrypto walks a decrypted payload's frames, adding each CRYPTO
// frame to cs. It reports whether any frame was ack-eliciting (CRYPTO or
// PING).
func addCrypto(cs *wire.CryptoStream, payload []byte) (ackEliciting bool, err error) {
	var info wire.FrameInfo
	err = wire.VisitFrames(payload, &info, func(fi *wire.FrameInfo) error {
		switch fi.Type {
		case wire.FrameTypeCrypto:
			ackEliciting = true
			return cs.Add(fi.CryptoOffset, fi.CryptoData)
		case wire.FrameTypePing:
			ackEliciting = true
		}
		return nil
	})
	return ackEliciting, err
}

// initialMessages splits the handshake messages out of one Initial
// packet, which must carry them whole: its CRYPTO frames may arrive in
// any order but must leave no gap.
func initialMessages(payload []byte) ([]tlsmini.Message, error) {
	var cs wire.CryptoStream
	if _, err := addCrypto(&cs, payload); err != nil {
		return nil, err
	}
	crypto := cs.Contiguous()
	if len(crypto) != cs.Buffered() {
		return nil, fmt.Errorf("handshake: Initial CRYPTO frames leave a gap at offset %d: %w", len(crypto), wire.ErrBadFrame)
	}
	return tlsmini.SplitMessages(crypto)
}

// levelMessages takes the complete messages off the front of a level's
// stream once a packet's frames went in; an incomplete last message
// waits for more frames. Each message is copied out, since a Certificate
// outlives its packet and the stream reuses its room.
func levelMessages(cs *wire.CryptoStream) []tlsmini.Message {
	msgs, _ := tlsmini.SplitMessages(cs.Contiguous()) // its one error is an incomplete last message
	n := 0
	for i, m := range msgs {
		raw := append([]byte(nil), m.Raw...)
		msgs[i] = tlsmini.Message{Type: m.Type, Raw: raw, Body: raw[4:]}
		n += len(raw)
	}
	cs.Discard(n)
	return msgs
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
