package quiccrypto

import (
	"fmt"

	"quicsand/internal/wire"
)

// Initial salts per version (RFC 9001 §5.2 and the corresponding
// drafts). A telescope dissector must know all deployed salts to
// validate backscatter from the Google (draft-29) and Facebook
// (mvfst/draft-27) populations.
var (
	saltV1      = []byte{0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17, 0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a}
	saltDraft29 = []byte{0xaf, 0xbf, 0xec, 0x28, 0x99, 0x93, 0xd2, 0x4c, 0x9e, 0x97, 0x86, 0xf1, 0x9c, 0x61, 0x11, 0xe0, 0x43, 0x90, 0xa8, 0x99}
	saltDraft27 = []byte{0xc3, 0xee, 0xf7, 0x12, 0xc7, 0x2e, 0xbb, 0x5a, 0x11, 0xa7, 0xd2, 0x43, 0x2b, 0xb4, 0x63, 0x65, 0xbe, 0xf9, 0xf5, 0x02}
)

// InitialSalt returns the version's initial salt.
func InitialSalt(v wire.Version) ([]byte, error) {
	switch v {
	case wire.Version1:
		return saltV1, nil
	case wire.VersionDraft29:
		return saltDraft29, nil
	case wire.VersionDraft27, wire.VersionMVFST27:
		return saltDraft27, nil
	}
	return nil, fmt.Errorf("quiccrypto: no initial salt for version %v", v)
}

// Perspective distinguishes the client and server halves of a
// connection's key material.
type Perspective int

// Connection perspectives.
const (
	PerspectiveClient Perspective = iota
	PerspectiveServer
)

// String implements fmt.Stringer.
func (p Perspective) String() string {
	if p == PerspectiveClient {
		return "client"
	}
	return "server"
}

// InitialSecrets derives the client and server initial secrets from the
// client's first Destination Connection ID (RFC 9001 §5.2).
func InitialSecrets(v wire.Version, clientDCID wire.ConnectionID) (clientSecret, serverSecret []byte, err error) {
	salt, err := InitialSalt(v)
	if err != nil {
		return nil, nil, err
	}
	initial := hkdfExtract(salt, clientDCID)
	clientSecret = hkdfExpandLabel(initial, "client in", nil, 32)
	serverSecret = hkdfExpandLabel(initial, "server in", nil, 32)
	return clientSecret, serverSecret, nil
}

// NewInitialSealer returns a Sealer protecting packets sent by the
// given perspective in the Initial space.
func NewInitialSealer(v wire.Version, clientDCID wire.ConnectionID, p Perspective) (*Sealer, error) {
	cs, ss, err := InitialSecrets(v, clientDCID)
	if err != nil {
		return nil, err
	}
	secret := cs
	if p == PerspectiveServer {
		secret = ss
	}
	return NewSealer(secret)
}

// NewInitialOpener returns an Opener for packets received from the
// peer of the given perspective in the Initial space.
func NewInitialOpener(v wire.Version, clientDCID wire.ConnectionID, p Perspective) (*Opener, error) {
	cs, ss, err := InitialSecrets(v, clientDCID)
	if err != nil {
		return nil, err
	}
	secret := ss
	if p == PerspectiveServer { // server opens client-protected packets
		secret = cs
	}
	return NewOpener(secret)
}
