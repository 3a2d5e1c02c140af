package quiccrypto

import (
	"bytes"
	"encoding/hex"
	"testing"

	"quicsand/internal/wire"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// RFC 9001 Appendix A.1 key-derivation vectors for the client DCID
// 0x8394c8f03e515708.
func TestInitialSecretsRFC9001Vectors(t *testing.T) {
	dcid := unhex(t, "8394c8f03e515708")
	cs, ss, err := InitialSecrets(wire.Version1, dcid)
	if err != nil {
		t.Fatal(err)
	}
	wantClient := unhex(t, "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	wantServer := unhex(t, "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b")
	if !bytes.Equal(cs, wantClient) {
		t.Errorf("client initial secret\n got %x\nwant %x", cs, wantClient)
	}
	if !bytes.Equal(ss, wantServer) {
		t.Errorf("server initial secret\n got %x\nwant %x", ss, wantServer)
	}

	// Derived packet-protection material (RFC 9001 A.1).
	k, err := deriveKeys(cs)
	if err != nil {
		t.Fatal(err)
	}
	_ = k
	key := hkdfExpandLabel(cs, "quic key", nil, 16)
	iv := hkdfExpandLabel(cs, "quic iv", nil, 12)
	hp := hkdfExpandLabel(cs, "quic hp", nil, 16)
	if !bytes.Equal(key, unhex(t, "1f369613dd76d5467730efcbe3b1a22d")) {
		t.Errorf("client key = %x", key)
	}
	if !bytes.Equal(iv, unhex(t, "fa044b2f42a3fd3b46fb255c")) {
		t.Errorf("client iv = %x", iv)
	}
	if !bytes.Equal(hp, unhex(t, "9f50449e04a0e810283a1e9933adedd2")) {
		t.Errorf("client hp = %x", hp)
	}

	skey := hkdfExpandLabel(ss, "quic key", nil, 16)
	siv := hkdfExpandLabel(ss, "quic iv", nil, 12)
	shp := hkdfExpandLabel(ss, "quic hp", nil, 16)
	if !bytes.Equal(skey, unhex(t, "cf3a5331653c364c88f0f379b6067e37")) {
		t.Errorf("server key = %x", skey)
	}
	if !bytes.Equal(siv, unhex(t, "0ac1493ca1905853b0bba03e")) {
		t.Errorf("server iv = %x", siv)
	}
	if !bytes.Equal(shp, unhex(t, "c206b8d9b9f0f37644430b490eeaa314")) {
		t.Errorf("server hp = %x", shp)
	}
}

func TestInitialSaltPerVersion(t *testing.T) {
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27} {
		salt, err := InitialSalt(v)
		if err != nil || len(salt) != 20 {
			t.Errorf("InitialSalt(%v) = %x, %v", v, salt, err)
		}
	}
	if _, err := InitialSalt(wire.Version(0xdead)); err == nil {
		t.Error("unknown version accepted")
	}
	// draft-27 and mvfst share a salt; draft-29 differs.
	s27, _ := InitialSalt(wire.VersionDraft27)
	sMv, _ := InitialSalt(wire.VersionMVFST27)
	s29, _ := InitialSalt(wire.VersionDraft29)
	if !bytes.Equal(s27, sMv) {
		t.Error("mvfst salt should match draft-27")
	}
	if bytes.Equal(s27, s29) {
		t.Error("draft-27 and draft-29 salts should differ")
	}
}

func TestVersionsDeriveDistinctSecrets(t *testing.T) {
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	seen := map[string]wire.Version{}
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27} {
		cs, _, err := InitialSecrets(v, dcid)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(cs)]; dup {
			t.Errorf("versions %v and %v derive identical secrets", prev, v)
		}
		seen[string(cs)] = v
	}
}

func TestPerspective(t *testing.T) {
	if PerspectiveClient.String() != "client" || PerspectiveServer.String() != "server" {
		t.Error("perspective strings")
	}
	if PerspectiveClient.Opposite() != PerspectiveServer || PerspectiveServer.Opposite() != PerspectiveClient {
		t.Error("opposite")
	}
}

// Opposite returns the peer's perspective.
func (p Perspective) Opposite() Perspective {
	if p == PerspectiveClient {
		return PerspectiveServer
	}
	return PerspectiveClient
}
