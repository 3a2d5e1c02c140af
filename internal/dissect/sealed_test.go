package dissect

import (
	"testing"
	"time"

	"quicsand/internal/handshake"
	"quicsand/internal/quiccrypto"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// The Initial keys derive from the wire DCID alone (RFC 9001 §5.2), so
// anyone can seal an Initial whose plaintext reaches the frame walk:
// the dissector's trial open succeeds on it, as on a real client's.

// nonShortestPadding is PADDING's frame type 0 written as a two-byte
// varint, then one byte: a frame walk that accepted the type would
// consume nothing of it.
var nonShortestPadding = []byte{0x40, 0x00, 0x12}

// maxSealedPlaintext keeps a fuzzed plaintext within the builder's
// two-byte Length field and one datagram.
const maxSealedPlaintext = 1400

// sealInitial protects plaintext as a version-1 client Initial to dcid
// with the public Initial keys: a two-byte packet number, and PADDING
// added to reach the 3 bytes header protection samples past. It
// returns the packet and the plaintext as sealed.
func sealInitial(t testing.TB, dcid, scid wire.ConnectionID, plaintext []byte) (pkt, sealed []byte) {
	t.Helper()
	const pnLen = 2
	sealed = append([]byte(nil), plaintext[:min(len(plaintext), maxSealedPlaintext)]...)
	for len(sealed) < 3 {
		sealed = append(sealed, 0)
	}
	sealer, err := quiccrypto.NewInitialSealer(wire.Version1, dcid, quiccrypto.PerspectiveClient)
	if err != nil {
		t.Fatal(err)
	}
	b := &wire.LongHeaderBuilder{Type: wire.PacketTypeInitial, Version: wire.Version1, DstConnID: dcid, SrcConnID: scid, PktNumLen: pnLen}
	pkt, err = b.AppendHeader(nil, len(sealed)+sealer.Overhead())
	if err != nil {
		t.Fatal(err)
	}
	pnOffset := len(pkt)
	pkt = wire.AppendPacketNumber(pkt, 0, pnLen)
	pkt = append(pkt, sealed...)
	if pkt, err = sealer.Seal(pkt, pnOffset, pnLen, 0); err != nil {
		t.Fatal(err)
	}
	return pkt, sealed
}

// clientInitialPlaintext opens a real client's first Initial.
func clientInitialPlaintext(t testing.TB) []byte {
	t.Helper()
	client, err := handshake.NewClient(handshake.ClientConfig{Version: wire.Version1, ServerName: "www.google.com"})
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

// request wraps a datagram as a client-to-telescope packet, which
// DissectPacket trial-opens.
func request(payload []byte) *telescope.Packet {
	return &telescope.Packet{Proto: telescope.ProtoUDP, SrcPort: 50000, DstPort: telescope.PortQUIC, Payload: payload, Size: uint16(len(payload))}
}

// TestDissectNonShortestFrameType: an Initial whose plaintext starts
// with a frame type in a longer encoding than it needs opens, and its
// frame walk fails at once: no frames, no ClientHello, and the failure
// is counted.
func TestDissectNonShortestFrameType(t *testing.T) {
	dg, _ := sealInitial(t, wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, wire.ConnectionID{9, 9, 9, 9}, nonShortestPadding)
	if len(dg) != 43 {
		t.Fatalf("sealed Initial is %d bytes, want 43", len(dg))
	}
	d := NewDissector()
	var r *Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err = d.DissectPacket(request(dg))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("DissectPacket did not return within 5 s")
	}
	if err != nil || len(r.Packets) != 1 {
		t.Fatalf("a sealed Initial dissected to %d packets, err %v", len(r.Packets), err)
	}
	if pi := r.Packets[0]; !pi.Decrypted || len(pi.FrameTypes) != 0 || pi.HasClientHello {
		t.Errorf("decrypted %v, frames %v, ClientHello %v; want an opened Initial whose frames were rejected",
			pi.Decrypted, pi.FrameTypes, pi.HasClientHello)
	}
	if m := d.Metrics; m.Decrypted != 1 || m.FrameErrors != 1 || m.ParseFailures != 0 {
		t.Errorf("decrypted %d, frame errors %d, parse failures %d; want 1, 1 and 0", m.Decrypted, m.FrameErrors, m.ParseFailures)
	}
}

// cryptoInFrames rewrites a client Initial's plaintext as its CRYPTO
// stream cut into n frames, written last piece first.
func cryptoInFrames(t testing.TB, plain []byte, n int) []byte {
	t.Helper()
	var crypto []byte
	err := wire.VisitFrames(plain, &wire.FrameInfo{}, func(fi *wire.FrameInfo) error {
		if fi.Type == wire.FrameTypeCrypto && fi.CryptoOffset == uint64(len(crypto)) {
			crypto = append(crypto, fi.CryptoData...)
		}
		return nil
	})
	if err != nil || len(crypto) < n {
		t.Fatalf("%d CRYPTO bytes (%v), want at least %d", len(crypto), err, n)
	}
	var out []byte
	for i := n - 1; i >= 0; i-- {
		lo, hi := i*len(crypto)/n, (i+1)*len(crypto)/n
		out = (&wire.CryptoFrame{Offset: uint64(lo), Data: crypto[lo:hi]}).Append(out)
	}
	if len(out) > maxSealedPlaintext {
		t.Fatalf("%d frames take %d bytes, more than one datagram", n, len(out))
	}
	return out
}

// TestDissectCryptoFrameBound: a ClientHello sent in
// wire.MaxCryptoFrames CRYPTO frames, out of order, is reassembled; in
// one frame more, the Initial opens but its frames are rejected.
func TestDissectCryptoFrameBound(t *testing.T) {
	plain := clientInitialPlaintext(t)
	d := NewDissector()
	for _, n := range []int{wire.MaxCryptoFrames, wire.MaxCryptoFrames + 1} {
		dg, _ := sealInitial(t, wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, wire.ConnectionID{9, 9, 9, 9}, cryptoInFrames(t, plain, n))
		r, err := d.DissectPacket(request(dg))
		if err != nil || len(r.Packets) != 1 {
			t.Fatalf("%d frames: %d packets, err %v", n, len(r.Packets), err)
		}
		pi := r.Packets[0]
		within := n <= wire.MaxCryptoFrames
		if !pi.Decrypted || pi.HasClientHello != within || (len(pi.FrameTypes) == n) != within {
			t.Errorf("%d frames: decrypted %v, %d frame types, ClientHello %v", n, pi.Decrypted, len(pi.FrameTypes), pi.HasClientHello)
		}
	}
}

// FuzzDissectSealedInitial seals an arbitrary plaintext as a client
// Initial, coalescing a second one when the fuzzer gives one, and
// dissects the datagram as a request. Every packet must open, and a
// frame walk makes at most one visit per plaintext byte.
func FuzzDissectSealedInitial(f *testing.F) {
	plain := clientInitialPlaintext(f)
	f.Add(plain, []byte(nil))
	f.Add(plain, plain)
	d := NewDissector()
	f.Fuzz(func(t *testing.T, first, second []byte) {
		dg, sealed := sealInitial(t, wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, wire.ConnectionID{9, 9, 9, 9}, first)
		plains := [][]byte{sealed}
		if len(second) > 0 {
			pkt, sealed := sealInitial(t, wire.ConnectionID{8, 7, 6, 5, 4, 3, 2, 1}, nil, second)
			dg = append(dg, pkt...)
			plains = append(plains, sealed)
		}
		r, err := d.DissectPacket(request(dg))
		if err != nil || len(r.Packets) != len(plains) {
			t.Fatalf("%d sealed Initials dissected to %d packets, err %v", len(plains), len(r.Packets), err)
		}
		for i, pi := range r.Packets {
			if !pi.Decrypted {
				t.Fatalf("packet %d: a sealed Initial did not open", i)
			}
			if len(pi.FrameTypes) > len(plains[i]) {
				t.Fatalf("packet %d: %d frames in %d plaintext bytes", i, len(pi.FrameTypes), len(plains[i]))
			}
		}
	})
}
