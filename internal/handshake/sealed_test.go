package handshake

import (
	"errors"
	"testing"
	"time"

	"quicsand/internal/quiccrypto"
	"quicsand/internal/wire"
)

// The Initial keys derive from the wire DCID alone (RFC 9001 §5.2), so
// anyone can seal an Initial whose plaintext reaches the server's frame
// parser.

// rawFrames is a plaintext written as it is.
type rawFrames []byte

func (f rawFrames) Append(dst []byte) []byte { return append(dst, f...) }

var (
	sealedDCID = wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	sealedSCID = wire.ConnectionID{9, 9, 9, 9}
)

// sealedInitial protects plaintext (cut to one datagram) as a version-1
// client Initial to dcid, as a client's would be.
func sealedInitial(t testing.TB, dcid wire.ConnectionID, plaintext []byte) []byte {
	t.Helper()
	sealer, err := quiccrypto.NewInitialSealer(wire.Version1, dcid, quiccrypto.PerspectiveClient)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := sealLongPacket(wire.PacketTypeInitial, wire.Version1, dcid, sealedSCID, nil, sealer, 0,
		[]wire.Frame{rawFrames(plaintext[:min(len(plaintext), 1400)])}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// clientInitialPlaintext opens a real client's first Initial.
func clientInitialPlaintext(t testing.TB) []byte {
	t.Helper()
	client, err := NewClient(ClientConfig{Version: wire.Version1, ServerName: "quicsand.test"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseLongHeader(first)
	if err != nil {
		t.Fatal(err)
	}
	opener, err := quiccrypto.NewInitialOpener(wire.Version1, h.DstConnID, quiccrypto.PerspectiveServer)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := opener.Open(first[:h.PacketLen()], h.HeaderLen())
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// TestServerCryptoFrameBound: a server answers a ClientHello sent in
// wire.MaxCryptoFrames CRYPTO frames, out of order, and fails the
// connection on one frame more.
func TestServerCryptoFrameBound(t *testing.T) {
	var crypto []byte
	err := wire.VisitFrames(clientInitialPlaintext(t), &wire.FrameInfo{}, func(fi *wire.FrameInfo) error {
		if fi.Type == wire.FrameTypeCrypto && fi.CryptoOffset == uint64(len(crypto)) {
			crypto = append(crypto, fi.CryptoData...)
		}
		return nil
	})
	if err != nil || len(crypto) == 0 {
		t.Fatalf("%d CRYPTO bytes in a client Initial, err %v", len(crypto), err)
	}
	for _, n := range []int{wire.MaxCryptoFrames, wire.MaxCryptoFrames + 1} {
		var plain []byte
		for i := n - 1; i >= 0; i-- {
			lo, hi := i*len(crypto)/n, (i+1)*len(crypto)/n
			plain = (&wire.CryptoFrame{Offset: uint64(lo), Data: crypto[lo:hi]}).Append(plain)
		}
		s, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, sealedDCID, sealedSCID)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.HandleDatagram(sealedInitial(t, sealedDCID, plain))
		if n <= wire.MaxCryptoFrames {
			if err != nil || len(out) == 0 {
				t.Errorf("%d frames: %d replies, err %v; want an answer", n, len(out), err)
			}
		} else if !errors.Is(err, wire.ErrBadFrame) || len(out) != 0 || s.State() != ServerStateFailed {
			t.Errorf("%d frames: %d replies, err %v, state %v; want a failed connection", n, len(out), err, s.State())
		}
	}
}

// TestServerNonShortestFrameType: a server handed an Initial whose
// plaintext starts with PADDING's type written in two bytes fails the
// connection at once.
func TestServerNonShortestFrameType(t *testing.T) {
	dg := sealedInitial(t, sealedDCID, []byte{0x40, 0x00, 0x12})
	if len(dg) != 43 {
		t.Fatalf("sealed Initial is %d bytes, want 43", len(dg))
	}
	s, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, sealedDCID, sealedSCID)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.HandleDatagram(dg)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("HandleDatagram did not return within 5 s")
	}
	if !errors.Is(err, wire.ErrBadFrame) || s.State() != ServerStateFailed {
		t.Errorf("err %v, state %v; want a failed connection on a malformed frame", err, s.State())
	}
}

// FuzzServerSealedInitial hands a fresh server connection a datagram of
// one sealed Initial with an arbitrary plaintext, coalescing a second
// one when the fuzzer gives one. The server must return; what it sends
// stays within three times what it received (RFC 9000 §8.1), and a
// failure is sticky.
func FuzzServerSealedInitial(f *testing.F) {
	plain := clientInitialPlaintext(f)
	f.Add(plain, []byte(nil))
	f.Add(plain, plain)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		dg := sealedInitial(t, sealedDCID, first)
		if len(second) > 0 {
			dg = append(dg, sealedInitial(t, sealedDCID, second)...)
		}
		s, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, sealedDCID, sealedSCID)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.HandleDatagram(dg)
		sent := 0
		for _, d := range out {
			sent += len(d)
		}
		if sent > 3*len(dg) {
			t.Fatalf("sent %d bytes for a %d-byte datagram", sent, len(dg))
		}
		if err != nil {
			if _, again := s.HandleDatagram(dg); again != err || s.State() != ServerStateFailed {
				t.Fatalf("after %v: state %v, next datagram err %v", err, s.State(), again)
			}
		}
	})
}
