package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func buildInitial(t *testing.T, version Version, dcid, scid, token []byte, payloadLen int) []byte {
	t.Helper()
	b := &LongHeaderBuilder{
		Type:      PacketTypeInitial,
		Version:   version,
		DstConnID: dcid,
		SrcConnID: scid,
		Token:     token,
		PktNumLen: 2,
	}
	hdr, err := b.AppendHeader(nil, payloadLen)
	if err != nil {
		t.Fatal(err)
	}
	hdr = AppendPacketNumber(hdr, 0, 2)
	return append(hdr, make([]byte, payloadLen)...)
}

func TestParseLongHeaderInitial(t *testing.T) {
	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scid := []byte{9, 10, 11, 12}
	token := []byte("tok")
	pkt := buildInitial(t, Version1, dcid, scid, token, 100)

	h, err := ParseLongHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != PacketTypeInitial {
		t.Errorf("type = %v", h.Type)
	}
	if h.Version != Version1 {
		t.Errorf("version = %v", h.Version)
	}
	if !bytes.Equal(h.DstConnID, dcid) || !bytes.Equal(h.SrcConnID, scid) {
		t.Errorf("cids = %v %v", h.DstConnID, h.SrcConnID)
	}
	if !bytes.Equal(h.Token, token) {
		t.Errorf("token = %q", h.Token)
	}
	if h.Length != 102 { // 2-byte pn + 100 payload
		t.Errorf("length = %d", h.Length)
	}
	if h.PacketLen() != len(pkt) {
		t.Errorf("packetLen = %d, want %d", h.PacketLen(), len(pkt))
	}
}

func TestParseLongHeaderCoalesced(t *testing.T) {
	first := buildInitial(t, Version1, []byte{1}, []byte{2}, nil, 50)
	hb := &LongHeaderBuilder{Type: PacketTypeHandshake, Version: Version1, DstConnID: []byte{1}, SrcConnID: []byte{2}, PktNumLen: 1}
	second, err := hb.AppendHeader(nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	second = AppendPacketNumber(second, 1, 1)
	second = append(second, make([]byte, 30)...)

	datagram := append(append([]byte{}, first...), second...)

	h1, err := ParseLongHeader(datagram)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Type != PacketTypeInitial || h1.PacketLen() != len(first) {
		t.Fatalf("first: %v len %d", h1.Type, h1.PacketLen())
	}
	h2, err := ParseLongHeader(datagram[h1.PacketLen():])
	if err != nil {
		t.Fatal(err)
	}
	if h2.Type != PacketTypeHandshake || h2.PacketLen() != len(second) {
		t.Fatalf("second: %v len %d", h2.Type, h2.PacketLen())
	}
}

func TestParseVersionNegotiation(t *testing.T) {
	scid := ConnectionID{0xaa, 0xbb}
	dcid := ConnectionID{0xcc}
	vers := []Version{Version1, VersionDraft29}
	pkt := AppendVersionNegotiation(nil, scid, dcid, vers, 0x17)

	h, err := ParseLongHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != PacketTypeVersionNegotiation {
		t.Fatalf("type = %v", h.Type)
	}
	if len(h.SupportedVersions) != 2 || h.SupportedVersions[0] != Version1 || h.SupportedVersions[1] != VersionDraft29 {
		t.Fatalf("versions = %v", h.SupportedVersions)
	}
	// VN packets echo the client SCID as DCID and vice versa.
	if !bytes.Equal(h.DstConnID, dcid) || !bytes.Equal(h.SrcConnID, scid) {
		t.Fatalf("cids = %v %v", h.DstConnID, h.SrcConnID)
	}
}

func TestParseVersionNegotiationEmptyListRejected(t *testing.T) {
	pkt := AppendVersionNegotiation(nil, nil, nil, nil, 0)
	if _, err := ParseLongHeader(pkt); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}

func TestParseRetryHeader(t *testing.T) {
	hb := &LongHeaderBuilder{Type: PacketTypeRetry, Version: Version1, DstConnID: []byte{1, 2}, SrcConnID: []byte{3, 4}}
	pkt := []byte{hb.firstByte()}
	pkt = append(pkt, 0, 0, 0, 1) // version 1
	pkt = append(pkt, 2, 1, 2)    // dcid
	pkt = append(pkt, 2, 3, 4)    // scid
	pkt = append(pkt, []byte("retry-token")...)
	tag := bytes.Repeat([]byte{0xee}, 16)
	pkt = append(pkt, tag...)

	h, err := ParseLongHeader(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != PacketTypeRetry {
		t.Fatalf("type = %v", h.Type)
	}
	if string(h.RetryToken) != "retry-token" {
		t.Fatalf("token = %q", h.RetryToken)
	}
	if !bytes.Equal(h.RetryIntegrityTag, tag) {
		t.Fatalf("tag = %x", h.RetryIntegrityTag)
	}
}

func TestParseLongHeaderErrors(t *testing.T) {
	valid := buildInitial(t, Version1, []byte{1, 2, 3, 4}, []byte{5}, nil, 20)

	t.Run("truncated", func(t *testing.T) {
		for i := 1; i < len(valid); i++ {
			if _, err := ParseLongHeader(valid[:i]); err == nil {
				t.Fatalf("no error at truncation %d", i)
			}
		}
	})
	t.Run("short header", func(t *testing.T) {
		pkt := append([]byte{}, valid...)
		pkt[0] &^= 0x80
		if _, err := ParseLongHeader(pkt); !errors.Is(err, ErrShortHeader) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("fixed bit clear", func(t *testing.T) {
		pkt := append([]byte{}, valid...)
		pkt[0] &^= 0x40
		if _, err := ParseLongHeader(pkt); !errors.Is(err, ErrNotQUIC) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("cid too long", func(t *testing.T) {
		pkt := append([]byte{}, valid...)
		pkt[5] = 21
		if _, err := ParseLongHeader(pkt); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(dcidLen, scidLen, tokLen uint8, payload uint16, useDraft bool) bool {
		dcid := bytes.Repeat([]byte{0xd}, int(dcidLen%21))
		scid := bytes.Repeat([]byte{0x5}, int(scidLen%21))
		token := bytes.Repeat([]byte{0x7}, int(tokLen%64))
		version := Version1
		if useDraft {
			version = VersionDraft29
		}
		plen := int(payload % 1200)
		b := &LongHeaderBuilder{
			Type: PacketTypeInitial, Version: version,
			DstConnID: dcid, SrcConnID: scid, Token: token, PktNumLen: 2,
		}
		hdr, err := b.AppendHeader(nil, plen)
		if err != nil {
			return false
		}
		hdr = AppendPacketNumber(hdr, 99, 2)
		pkt := append(hdr, make([]byte, plen)...)
		h, err := ParseLongHeader(pkt)
		if err != nil {
			return false
		}
		return h.Type == PacketTypeInitial &&
			h.Version == version &&
			bytes.Equal(h.DstConnID, dcid) &&
			bytes.Equal(h.SrcConnID, scid) &&
			bytes.Equal(h.Token, token) &&
			h.PacketLen() == len(pkt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsLongHeaderAndFixedBit(t *testing.T) {
	if !IsLongHeader([]byte{0xc0}) || IsLongHeader([]byte{0x40}) || IsLongHeader(nil) {
		t.Error("IsLongHeader misclassifies")
	}
	if !HasFixedBit([]byte{0x40}) || HasFixedBit([]byte{0x80}) || HasFixedBit(nil) {
		t.Error("HasFixedBit misclassifies")
	}
}

func TestVersionStrings(t *testing.T) {
	cases := map[Version]string{
		Version1:            "v1",
		VersionDraft27:      "draft-27",
		VersionDraft29:      "draft-29",
		VersionMVFST27:      "mvfst-draft-27",
		VersionNegotiation:  "negotiation",
		Version(0xff00001a): "draft-26",
		Version(0x1a2a3a4a): "reserved-0x1a2a3a4a",
		Version(0x12345678): "unknown-0x12345678",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#x.String() = %q, want %q", uint32(v), got, want)
		}
	}
	if !Version(0x3a4a5a6a).IsReserved() {
		t.Error("reserved pattern not detected")
	}
	if Version1.IsReserved() {
		t.Error("v1 flagged reserved")
	}
	if VersionMVFST27.DraftNumber() != 27 || VersionDraft29.DraftNumber() != 29 || Version1.DraftNumber() != -1 {
		t.Error("draft numbers wrong")
	}
	for _, v := range DefaultSupportedVersions {
		if !v.Known() {
			t.Errorf("default version %v not Known", v)
		}
	}
	if Version(0xdeadbeef).Known() {
		t.Error("unknown version reported Known")
	}
}
