package wire

import (
	"errors"
	"fmt"
)

// PacketType enumerates QUIC packet types distinguishable on the wire.
type PacketType uint8

// Long-header packet types (RFC 9000 §17.2) plus the pseudo-types for
// short-header and version-negotiation packets.
const (
	PacketTypeInitial PacketType = iota
	PacketTypeZeroRTT
	PacketTypeHandshake
	PacketTypeRetry
	PacketTypeVersionNegotiation
	PacketTypeOneRTT // short header
)

// String implements fmt.Stringer using the paper's terminology.
func (t PacketType) String() string {
	switch t {
	case PacketTypeInitial:
		return "Initial"
	case PacketTypeZeroRTT:
		return "0-RTT"
	case PacketTypeHandshake:
		return "Handshake"
	case PacketTypeRetry:
		return "Retry"
	case PacketTypeVersionNegotiation:
		return "VersionNegotiation"
	case PacketTypeOneRTT:
		return "1-RTT"
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// Connection ID limits. RFC 9000 caps CIDs at 20 bytes; draft versions
// ≤ 22 allowed longer ones but none of the deployed stacks used them.
const MaxConnIDLen = 20

// ConnectionID is a QUIC connection identifier (0–20 bytes).
type ConnectionID []byte

// String prints the CID as lowercase hex, matching Wireshark output.
func (c ConnectionID) String() string {
	if len(c) == 0 {
		return "(empty)"
	}
	return fmt.Sprintf("%x", []byte(c))
}

// Header is a parsed QUIC packet header. For long-header packets all
// fields are populated; for short-header packets only DstConnID (whose
// length must be known out of band) and Type are meaningful.
type Header struct {
	Type      PacketType
	Version   Version
	DstConnID ConnectionID
	SrcConnID ConnectionID

	// Initial only.
	Token []byte

	// Length is the payload length field (packet number + protected
	// payload) for Initial/0-RTT/Handshake packets.
	Length uint64

	// Retry only: everything after the SCID up to (not including) the
	// 16-byte integrity tag.
	RetryToken []byte
	// RetryIntegrityTag is the final 16 bytes of a Retry packet.
	RetryIntegrityTag []byte

	// SupportedVersions lists the versions in a Version Negotiation
	// packet.
	SupportedVersions []Version

	// raw bookkeeping (set by ParseLongHeader).
	headerLen int // bytes up to and including the Length field
	packetLen int // total bytes of this QUIC packet within the datagram
}

// Errors returned by header parsing.
var (
	ErrNotQUIC       = errors.New("wire: not a QUIC packet")
	ErrBadHeader     = errors.New("wire: malformed header")
	ErrShortHeader   = errors.New("wire: short header packet")
	ErrUnknownCIDLen = errors.New("wire: unknown connection ID length")
)

// HeaderLen returns the number of bytes from the start of the packet up
// to and including the Length field (i.e. the offset of the packet
// number). Zero for Retry and Version Negotiation packets.
func (h *Header) HeaderLen() int { return h.headerLen }

// PacketLen returns the total length of this QUIC packet inside its
// datagram, which is less than the datagram length when packets are
// coalesced (RFC 9000 §12.2).
func (h *Header) PacketLen() int { return h.packetLen }

// IsLongHeader reports whether b starts with a QUIC long header.
func IsLongHeader(b []byte) bool {
	return len(b) > 0 && b[0]&0x80 != 0
}

// HasFixedBit reports whether the QUIC fixed bit (0x40) is set; RFC 9000
// requires it in all packets except version negotiation, and the
// telescope dissector uses it to reject non-QUIC UDP/443 payloads.
func HasFixedBit(b []byte) bool {
	return len(b) > 0 && b[0]&0x40 != 0
}

// ParseLongHeader parses one long-header packet from the front of data.
// data may contain further coalesced packets; use Header.PacketLen to
// skip to the next one. The packet payload is NOT decrypted; callers
// needing packet numbers or frames must remove packet protection first
// (package quiccrypto).
func ParseLongHeader(data []byte) (*Header, error) {
	h := &Header{}
	if err := ParseLongHeaderInto(h, data); err != nil {
		return nil, err
	}
	return h, nil
}

// ParseLongHeaderInto parses like ParseLongHeader but decodes into a
// caller-owned Header, so streaming dissectors can parse millions of
// packets without per-packet allocation. Every field is overwritten;
// slice fields (connection IDs, tokens) alias data and stay valid only
// while data does.
func ParseLongHeaderInto(h *Header, data []byte) error {
	*h = Header{}
	if len(data) < 6 {
		return ErrTruncated
	}
	if data[0]&0x80 == 0 {
		return ErrShortHeader
	}
	h.Version = Version(uint32(data[1])<<24 | uint32(data[2])<<16 | uint32(data[3])<<8 | uint32(data[4]))

	pos := 5
	// Destination connection ID.
	dcidLen := int(data[pos])
	pos++
	if dcidLen > MaxConnIDLen && h.Version != VersionNegotiation {
		return fmt.Errorf("wire: DCID length %d: %w", dcidLen, ErrBadHeader)
	}
	if len(data) < pos+dcidLen+1 {
		return ErrTruncated
	}
	h.DstConnID = ConnectionID(data[pos : pos+dcidLen])
	pos += dcidLen
	// Source connection ID.
	scidLen := int(data[pos])
	pos++
	if scidLen > MaxConnIDLen && h.Version != VersionNegotiation {
		return fmt.Errorf("wire: SCID length %d: %w", scidLen, ErrBadHeader)
	}
	if len(data) < pos+scidLen {
		return ErrTruncated
	}
	h.SrcConnID = ConnectionID(data[pos : pos+scidLen])
	pos += scidLen

	if h.Version == VersionNegotiation {
		h.Type = PacketTypeVersionNegotiation
		if (len(data)-pos)%4 != 0 || len(data) == pos {
			return fmt.Errorf("wire: version negotiation list: %w", ErrBadHeader)
		}
		for ; pos < len(data); pos += 4 {
			h.SupportedVersions = append(h.SupportedVersions,
				Version(uint32(data[pos])<<24|uint32(data[pos+1])<<16|uint32(data[pos+2])<<8|uint32(data[pos+3])))
		}
		h.packetLen = len(data)
		return nil
	}

	if data[0]&0x40 == 0 {
		// Fixed bit must be set for all known versions.
		return ErrNotQUIC
	}

	switch (data[0] >> 4) & 0x3 {
	case 0:
		h.Type = PacketTypeInitial
	case 1:
		h.Type = PacketTypeZeroRTT
	case 2:
		h.Type = PacketTypeHandshake
	case 3:
		h.Type = PacketTypeRetry
	}

	if h.Type == PacketTypeRetry {
		// Token runs to the end of the datagram minus the 16-byte tag.
		if len(data)-pos < 16 {
			return ErrTruncated
		}
		h.RetryToken = data[pos : len(data)-16]
		h.RetryIntegrityTag = data[len(data)-16:]
		h.packetLen = len(data)
		return nil
	}

	if h.Type == PacketTypeInitial {
		tokenLen, n, err := ConsumeVarint(data[pos:])
		if err != nil {
			return err
		}
		pos += n
		if uint64(len(data)-pos) < tokenLen {
			return ErrTruncated
		}
		h.Token = data[pos : pos+int(tokenLen)]
		pos += int(tokenLen)
	}

	length, n, err := ConsumeVarint(data[pos:])
	if err != nil {
		return err
	}
	pos += n
	h.Length = length
	h.headerLen = pos
	if uint64(len(data)-pos) < length {
		return ErrTruncated
	}
	h.packetLen = pos + int(length)
	return nil
}

// LongHeaderBuilder assembles an unprotected long-header packet. Use it
// with quiccrypto's sealers to produce wire bytes.
type LongHeaderBuilder struct {
	Type      PacketType
	Version   Version
	DstConnID ConnectionID
	SrcConnID ConnectionID
	Token     []byte // Initial only
	PktNumLen int    // 1..4; encoded into the (to be protected) first byte
}

// firstByte computes the unprotected first byte for the packet.
func (b *LongHeaderBuilder) firstByte() byte {
	var t byte
	switch b.Type {
	case PacketTypeInitial:
		t = 0
	case PacketTypeZeroRTT:
		t = 1
	case PacketTypeHandshake:
		t = 2
	case PacketTypeRetry:
		t = 3
	}
	pn := b.PktNumLen
	if pn == 0 {
		pn = 1
	}
	return 0xc0 | t<<4 | byte(pn-1)
}

// AppendHeader appends the long header through the Length field, using
// a 2-byte Length encoding so the value can be patched in place once
// the payload size is known. It returns the new slice and the offset of
// the Length field.
func (b *LongHeaderBuilder) AppendHeader(dst []byte, payloadLen int) ([]byte, error) {
	if len(b.DstConnID) > MaxConnIDLen || len(b.SrcConnID) > MaxConnIDLen {
		return dst, fmt.Errorf("wire: connection ID too long: %w", ErrBadHeader)
	}
	dst = append(dst, b.firstByte())
	v := uint32(b.Version)
	dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	dst = append(dst, byte(len(b.DstConnID)))
	dst = append(dst, b.DstConnID...)
	dst = append(dst, byte(len(b.SrcConnID)))
	dst = append(dst, b.SrcConnID...)
	if b.Type == PacketTypeInitial {
		dst = AppendVarint(dst, uint64(len(b.Token)))
		dst = append(dst, b.Token...)
	}
	pnLen := b.PktNumLen
	if pnLen == 0 {
		pnLen = 1
	}
	var err error
	dst, err = AppendVarintWithLen(dst, uint64(payloadLen+pnLen), 2)
	if err != nil {
		return dst, err
	}
	return dst, nil
}

// AppendVersionNegotiation builds a Version Negotiation packet echoing
// the client's connection IDs (RFC 9000 §17.2.1). randFirst supplies
// entropy for the unused first-byte bits; pass 0 for deterministic
// output.
func AppendVersionNegotiation(dst []byte, scid, dcid ConnectionID, versions []Version, randFirst byte) []byte {
	dst = append(dst, 0x80|randFirst&0x3f)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, byte(len(dcid)))
	dst = append(dst, dcid...)
	dst = append(dst, byte(len(scid)))
	dst = append(dst, scid...)
	for _, v := range versions {
		dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return dst
}
