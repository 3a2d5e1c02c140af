// Package tlsmini implements the minimal slice of TLS 1.3 (RFC 8446)
// that a QUIC handshake carries in CRYPTO frames: ClientHello,
// ServerHello, EncryptedExtensions, Certificate, CertificateVerify and
// Finished, for the TLS_AES_128_GCM_SHA256 suite with X25519 key
// exchange and ECDSA-P256 certificates.
//
// The package provides exactly what the paper's experiments exercise:
// enough to complete (and dissect) real handshakes and to measure their
// cost — no session resumption, no client certificates, no PSK.
package tlsmini

import (
	"errors"
	"fmt"
)

// HandshakeType identifies a TLS handshake message (RFC 8446 §4).
type HandshakeType uint8

// Handshake message types used by the QUIC handshake.
const (
	TypeClientHello         HandshakeType = 1
	TypeServerHello         HandshakeType = 2
	TypeEncryptedExtensions HandshakeType = 8
	TypeCertificate         HandshakeType = 11
	TypeCertificateVerify   HandshakeType = 15
	TypeFinished            HandshakeType = 20
)

// String implements fmt.Stringer.
func (t HandshakeType) String() string {
	switch t {
	case TypeClientHello:
		return "ClientHello"
	case TypeServerHello:
		return "ServerHello"
	case TypeEncryptedExtensions:
		return "EncryptedExtensions"
	case TypeCertificate:
		return "Certificate"
	case TypeCertificateVerify:
		return "CertificateVerify"
	case TypeFinished:
		return "Finished"
	}
	return fmt.Sprintf("HandshakeType(%d)", uint8(t))
}

// Cipher suites and named groups.
const (
	// SuiteAES128GCMSHA256 is TLS_AES_128_GCM_SHA256, the suite every
	// 2021 QUIC deployment negotiated.
	SuiteAES128GCMSHA256 uint16 = 0x1301
	// GroupX25519 is the x25519 named group.
	GroupX25519 uint16 = 0x001d
	// SchemeECDSAP256 is ecdsa_secp256r1_sha256.
	SchemeECDSAP256 uint16 = 0x0403
	// VersionTLS13 is the supported_versions codepoint for TLS 1.3.
	VersionTLS13 uint16 = 0x0304
	// VersionTLS12 is the legacy_version value carried on the wire.
	VersionTLS12 uint16 = 0x0303
)

// Extension codepoints (RFC 8446 §4.2 and RFC 9001 §8.2).
const (
	extServerName          uint16 = 0
	extSupportedGroups     uint16 = 10
	extALPN                uint16 = 16
	extSupportedVersions   uint16 = 43
	extKeyShare            uint16 = 51
	extSignatureAlgorithms uint16 = 13
	extQUICTransportParams uint16 = 0x39
	// extQUICTransportParamsDraft is the pre-RFC codepoint used by
	// draft deployments (mvfst, Google draft-29).
	extQUICTransportParamsDraft uint16 = 0xffa5
)

// Errors returned by parsers.
var (
	ErrTruncated = errors.New("tlsmini: truncated message")
	ErrMalformed = errors.New("tlsmini: malformed message")
)

// cursor is a bounds-checked big-endian reader.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) u8() uint8 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 1 {
		c.err = ErrTruncated
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u16() uint16 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 2 {
		c.err = ErrTruncated
		return 0
	}
	v := uint16(c.b[0])<<8 | uint16(c.b[1])
	c.b = c.b[2:]
	return v
}

func (c *cursor) u24() int {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 3 {
		c.err = ErrTruncated
		return 0
	}
	v := int(c.b[0])<<16 | int(c.b[1])<<8 | int(c.b[2])
	c.b = c.b[3:]
	return v
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b) < n {
		c.err = ErrTruncated
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// appendU16 appends v big-endian.
func appendU16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }

// appendU24 appends the low 24 bits of v big-endian.
func appendU24(dst []byte, v int) []byte { return append(dst, byte(v>>16), byte(v>>8), byte(v)) }

// wrapHandshake prepends the 4-byte handshake header (type + u24 len).
func wrapHandshake(t HandshakeType, body []byte) []byte {
	out := make([]byte, 0, 4+len(body))
	out = append(out, byte(t))
	out = appendU24(out, len(body))
	return append(out, body...)
}

// Message is a raw handshake message split out of a CRYPTO stream.
type Message struct {
	Type HandshakeType
	// Raw is the complete message including the 4-byte header, as
	// needed for transcript hashing.
	Raw []byte
	// Body is the message payload.
	Body []byte
}

// SplitMessages splits a contiguous CRYPTO stream into handshake
// messages. It returns ErrTruncated if the stream ends mid-message.
func SplitMessages(stream []byte) ([]Message, error) {
	return AppendMessages(nil, stream)
}

// AppendMessages is SplitMessages with caller-supplied storage: hot
// paths (the telescope dissector) pass a recycled msgs[:0] so the
// per-datagram split allocates nothing in steady state.
func AppendMessages(msgs []Message, stream []byte) ([]Message, error) {
	for len(stream) > 0 {
		if len(stream) < 4 {
			return msgs, ErrTruncated
		}
		bodyLen := int(stream[1])<<16 | int(stream[2])<<8 | int(stream[3])
		if len(stream) < 4+bodyLen {
			return msgs, ErrTruncated
		}
		msgs = append(msgs, Message{
			Type: HandshakeType(stream[0]),
			Raw:  stream[:4+bodyLen],
			Body: stream[4 : 4+bodyLen],
		})
		stream = stream[4+bodyLen:]
	}
	return msgs, nil
}
