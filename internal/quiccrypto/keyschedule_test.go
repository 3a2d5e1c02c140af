package quiccrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"testing"
)

// TestKeyScheduleSymmetry drives two schedules (client/server view)
// through the same transcript and checks they agree on every secret —
// the property the QUIC handshake relies on.
func TestKeyScheduleSymmetry(t *testing.T) {
	curve := ecdh.X25519()
	cPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cShared, err := cPriv.ECDH(sPriv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	sShared, err := sPriv.ECDH(cPriv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cShared, sShared) {
		t.Fatal("x25519 shared secrets disagree")
	}

	ch := []byte{1, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'}
	sh := []byte{2, 0, 0, 3, 's', 'r', 'v'}

	client, server := NewKeySchedule(), NewKeySchedule()
	for _, ks := range []*KeySchedule{client, server} {
		ks.WriteTranscript(ch)
		ks.WriteTranscript(sh)
	}
	cHS1, sHS1 := client.SetHandshakeSecrets(cShared)
	cHS2, sHS2 := server.SetHandshakeSecrets(sShared)
	if !bytes.Equal(cHS1, cHS2) || !bytes.Equal(sHS1, sHS2) {
		t.Fatal("handshake traffic secrets disagree")
	}
	if bytes.Equal(cHS1, sHS1) {
		t.Fatal("client and server secrets must differ")
	}

	// Server computes Finished over the current transcript; client
	// verifies with the same secret.
	ee := []byte{8, 0, 0, 0}
	client.WriteTranscript(ee)
	server.WriteTranscript(ee)
	fin := server.FinishedMAC(sHS2)
	if !client.VerifyFinished(sHS1, fin) {
		t.Fatal("finished verification failed")
	}
	if client.VerifyFinished(cHS1, fin) {
		t.Fatal("finished verified with wrong secret")
	}

	finMsg := append([]byte{20, 0, 0, byte(len(fin))}, fin...)
	client.WriteTranscript(finMsg)
	server.WriteTranscript(finMsg)
	cApp1, sApp1 := client.SetMasterSecrets()
	cApp2, sApp2 := server.SetMasterSecrets()
	if !bytes.Equal(cApp1, cApp2) || !bytes.Equal(sApp1, sApp2) {
		t.Fatal("application secrets disagree")
	}
}

func TestKeySchedulePhaseEnforcement(t *testing.T) {
	ks := NewKeySchedule()
	defer func() {
		if recover() == nil {
			t.Error("SetMasterSecrets before handshake should panic")
		}
	}()
	ks.SetMasterSecrets()
}

func TestKeyScheduleDoubleHandshakePanics(t *testing.T) {
	ks := NewKeySchedule()
	ks.SetHandshakeSecrets([]byte{1})
	defer func() {
		if recover() == nil {
			t.Error("second SetHandshakeSecrets should panic")
		}
	}()
	ks.SetHandshakeSecrets([]byte{1})
}

func TestTranscriptSensitivity(t *testing.T) {
	a, b := NewKeySchedule(), NewKeySchedule()
	a.WriteTranscript([]byte("msg-a"))
	b.WriteTranscript([]byte("msg-b"))
	ca, _ := a.SetHandshakeSecrets([]byte{42})
	cb, _ := b.SetHandshakeSecrets([]byte{42})
	if bytes.Equal(ca, cb) {
		t.Fatal("different transcripts produced identical secrets")
	}
}

func TestHKDFExpandLabelLengths(t *testing.T) {
	secret := make([]byte, 32)
	for _, n := range []int{1, 12, 16, 32, 48, 64, 100} {
		out := hkdfExpandLabel(secret, "test", nil, n)
		if len(out) != n {
			t.Errorf("len = %d, want %d", len(out), n)
		}
	}
	// Different labels must diverge.
	if bytes.Equal(hkdfExpandLabel(secret, "a", nil, 16), hkdfExpandLabel(secret, "b", nil, 16)) {
		t.Error("labels do not separate key material")
	}
	// Extract with empty salt equals extract with zero-salt per RFC 5869.
	if !bytes.Equal(hkdfExtract(nil, []byte{1}), hkdfExtract(make([]byte, 32), []byte{1})) {
		t.Error("nil salt should behave as zero salt")
	}
}
