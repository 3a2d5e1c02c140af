// Package quiccrypto implements QUIC packet protection as specified by
// RFC 9001, plus the TLS 1.3 key schedule (RFC 8446 §7.1) needed to
// protect Handshake packets.
//
// Everything is built from the standard library (crypto/hmac,
// crypto/aes, crypto/cipher, crypto/sha256) and validated against the
// RFC 9001 Appendix A key-derivation vectors.
package quiccrypto

import (
	"crypto/hmac"
	"crypto/sha256"
)

// hkdfExtract implements HKDF-Extract (RFC 5869) with SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// hkdfExpand implements HKDF-Expand (RFC 5869) with SHA-256.
func hkdfExpand(prk, info []byte, length int) []byte {
	var (
		out  = make([]byte, 0, length)
		prev []byte
		ctr  byte
	)
	for len(out) < length {
		ctr++
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{ctr})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// hkdfExpandLabel implements HKDF-Expand-Label (RFC 8446 §7.1) with the
// "tls13 " label prefix used by both TLS 1.3 and QUIC.
func hkdfExpandLabel(secret []byte, label string, context []byte, length int) []byte {
	info := make([]byte, 0, 2+1+6+len(label)+1+len(context))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(6+len(label)))
	info = append(info, "tls13 "...)
	info = append(info, label...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	return hkdfExpand(secret, info, length)
}
