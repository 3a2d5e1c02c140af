package quiccrypto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"quicsand/internal/wire"
)

// buildTestInitial assembles an unprotected Initial packet and returns
// the packet plus the packet-number offset.
func buildTestInitial(t *testing.T, dcid, scid wire.ConnectionID, pn uint64, pnLen int, payload []byte) ([]byte, int) {
	t.Helper()
	b := &wire.LongHeaderBuilder{
		Type: wire.PacketTypeInitial, Version: wire.Version1,
		DstConnID: dcid, SrcConnID: scid, PktNumLen: pnLen,
	}
	// Length field = pnLen + payload + AEAD tag.
	hdr, err := b.AppendHeader(nil, len(payload)+16)
	if err != nil {
		t.Fatal(err)
	}
	pnOffset := len(hdr)
	hdr = wire.AppendPacketNumber(hdr, pn, pnLen)
	return append(hdr, payload...), pnOffset
}

func TestSealOpenRoundTrip(t *testing.T) {
	dcid := wire.ConnectionID{0x83, 0x94, 0xc8, 0xf0, 0x3e, 0x51, 0x57, 0x08}
	scid := wire.ConnectionID{0xaa, 0xbb}
	payload := bytes.Repeat([]byte("quicsand"), 40)

	sealer, err := NewInitialSealer(wire.Version1, dcid, PerspectiveClient)
	if err != nil {
		t.Fatal(err)
	}
	pkt, pnOffset := buildTestInitial(t, dcid, scid, 2, 4, payload)
	protected, err := sealer.Seal(pkt, pnOffset, 4, 2)
	if err != nil {
		t.Fatal(err)
	}

	// The wire header must still parse while protected.
	h, err := wire.ParseLongHeader(protected)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != wire.PacketTypeInitial || !bytes.Equal(h.DstConnID, dcid) {
		t.Fatalf("protected header: %+v", h)
	}

	opener, err := NewInitialOpener(wire.Version1, dcid, PerspectiveServer)
	if err != nil {
		t.Fatal(err)
	}
	got, pn, err := opener.Open(protected, h.HeaderLen())
	if err != nil {
		t.Fatal(err)
	}
	if pn != 2 {
		t.Errorf("pn = %d", pn)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestOpenWrongKeysFailsAndRestores(t *testing.T) {
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	payload := []byte("attack at dawn, pad pad pad pad pad")
	sealer, _ := NewInitialSealer(wire.Version1, dcid, PerspectiveClient)
	pkt, pnOffset := buildTestInitial(t, dcid, nil, 0, 2, payload)
	protected, err := sealer.Seal(pkt, pnOffset, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte{}, protected...)

	// draft-29 keys must not open a v1-protected packet.
	wrong, _ := NewInitialOpener(wire.VersionDraft29, dcid, PerspectiveServer)
	if _, _, err := wrong.Open(protected, pnOffset); !errors.Is(err, ErrDecryptFailed) {
		t.Fatalf("err = %v, want ErrDecryptFailed", err)
	}
	if !bytes.Equal(protected, snapshot) {
		t.Fatal("failed Open mutated the packet")
	}

	// The correct opener must still succeed afterwards.
	right, _ := NewInitialOpener(wire.Version1, dcid, PerspectiveServer)
	got, _, err := right.Open(protected, pnOffset)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after retry")
	}
}

func TestOpenTamperedPacketFails(t *testing.T) {
	dcid := wire.ConnectionID{9, 9, 9, 9}
	payload := bytes.Repeat([]byte{0x42}, 64)
	sealer, _ := NewInitialSealer(wire.Version1, dcid, PerspectiveServer)
	pkt, pnOffset := buildTestInitial(t, dcid, nil, 7, 2, payload)
	protected, _ := sealer.Seal(pkt, pnOffset, 2, 7)

	protected[len(protected)-1] ^= 0xff
	opener, _ := NewInitialOpener(wire.Version1, dcid, PerspectiveClient)
	if _, _, err := opener.Open(protected, pnOffset); !errors.Is(err, ErrDecryptFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestSealerPerspectivesAreDisjoint(t *testing.T) {
	dcid := wire.ConnectionID{5, 5, 5, 5, 5}
	payload := bytes.Repeat([]byte{1}, 40)
	cSeal, _ := NewInitialSealer(wire.Version1, dcid, PerspectiveClient)
	pkt, pnOffset := buildTestInitial(t, dcid, nil, 1, 2, payload)
	protected, _ := cSeal.Seal(pkt, pnOffset, 2, 1)

	// Client-perspective opener expects *server* packets: must fail.
	cOpen, _ := NewInitialOpener(wire.Version1, dcid, PerspectiveClient)
	if _, _, err := cOpen.Open(protected, pnOffset); err == nil {
		t.Fatal("client opener decrypted a client packet")
	}
}

func TestShortPacketErrors(t *testing.T) {
	dcid := wire.ConnectionID{1}
	sealer, _ := NewInitialSealer(wire.Version1, dcid, PerspectiveClient)
	if _, err := sealer.Seal([]byte{0xc0}, 5, 2, 0); !errors.Is(err, ErrShortPacket) {
		t.Errorf("Seal err = %v", err)
	}
	opener, _ := NewInitialOpener(wire.Version1, dcid, PerspectiveServer)
	if _, _, err := opener.Open([]byte{0xc0, 1, 2, 3}, 1); !errors.Is(err, ErrShortPacket) {
		t.Errorf("Open err = %v", err)
	}
}

func TestTruncatedPacketNumberRecovery(t *testing.T) {
	// Seal packets with increasing numbers using 1-byte encodings and
	// ensure the opener recovers the full numbers across the 256 wrap.
	dcid := wire.ConnectionID{0xab, 0xcd}
	sealer, _ := NewInitialSealer(wire.Version1, dcid, PerspectiveClient)
	opener, _ := NewInitialOpener(wire.Version1, dcid, PerspectiveServer)
	payload := bytes.Repeat([]byte{7}, 32)

	for _, pn := range []uint64{0, 1, 200, 255, 256, 300, 511, 520} {
		pnLen := wire.PacketNumberLen(pn, opener.largestPN)
		pkt, pnOffset := buildTestInitial(t, dcid, nil, pn, pnLen, payload)
		protected, err := sealer.Seal(pkt, pnOffset, pnLen, pn)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := opener.Open(protected, pnOffset)
		if err != nil {
			t.Fatalf("pn %d: %v", pn, err)
		}
		if got != pn {
			t.Fatalf("recovered pn = %d, want %d", got, pn)
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	dcid := wire.ConnectionID{0xde, 0xad, 0xbe, 0xef}
	sealer, _ := NewInitialSealer(wire.VersionDraft29, dcid, PerspectiveServer)
	f := func(payload []byte, pnSeed uint16) bool {
		if len(payload) < 20 {
			payload = append(payload, make([]byte, 20-len(payload))...)
		}
		pn := uint64(pnSeed)
		var hdrTmp []byte
		b := &wire.LongHeaderBuilder{Type: wire.PacketTypeHandshake, Version: wire.VersionDraft29, DstConnID: dcid, PktNumLen: 4}
		hdrTmp, err := b.AppendHeader(nil, len(payload)+16)
		if err != nil {
			return false
		}
		pnOffset := len(hdrTmp)
		hdrTmp = wire.AppendPacketNumber(hdrTmp, pn, 4)
		pkt := append(hdrTmp, payload...)
		protected, err := sealer.Seal(pkt, pnOffset, 4, pn)
		if err != nil {
			return false
		}
		opener, _ := NewInitialOpener(wire.VersionDraft29, dcid, PerspectiveClient)
		got, gotPN, err := opener.Open(protected, pnOffset)
		return err == nil && gotPN == pn && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSealerOverhead(t *testing.T) {
	s, err := NewSealer(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if s.Overhead() != 16 {
		t.Errorf("overhead = %d", s.Overhead())
	}
}
