package dissect

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"quicsand/internal/handshake"
	"quicsand/internal/netmodel"
	"quicsand/internal/quiccrypto"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

var dissectorIdentity *tlsmini.Identity

func init() {
	id, err := tlsmini.GenerateSelfSigned("dissect.test", 500)
	if err != nil {
		panic(err)
	}
	dissectorIdentity = id
}

// clientInitialAndServerFlight produces real wire bytes: the client's
// Initial datagram and the server's response datagrams.
func clientInitialAndServerFlight(t *testing.T, version wire.Version) ([]byte, [][]byte) {
	t.Helper()
	client, err := handshake.NewClient(handshake.ClientConfig{Version: version, ServerName: "www.google.com"})
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
	server, err := handshake.NewServerConn(handshake.ServerConfig{Identity: dissectorIdentity}, version, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := server.HandleDatagram(append([]byte(nil), first...))
	if err != nil {
		t.Fatal(err)
	}
	return first, flight
}

func TestDissectClientInitial(t *testing.T) {
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionMVFST27} {
		t.Run(v.String(), func(t *testing.T) {
			initial, _ := clientInitialAndServerFlight(t, v)
			d := NewDissector()
			r, err := d.Dissect(initial)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Valid || len(r.Packets) == 0 {
				t.Fatal("client initial not valid")
			}
			info := r.First()
			if info.Type != wire.PacketTypeInitial {
				t.Fatalf("type = %v", info.Type)
			}
			if info.Version != v {
				t.Fatalf("version = %v", info.Version)
			}
			if !info.Decrypted {
				t.Fatal("client initial should be decryptable from wire DCID")
			}
			if !info.HasClientHello {
				t.Fatal("client hello not found")
			}
			if info.SNI != "www.google.com" {
				t.Fatalf("sni = %q", info.SNI)
			}
		})
	}
}

func TestDissectServerFlightIsBackscatterShaped(t *testing.T) {
	_, flight := clientInitialAndServerFlight(t, wire.Version1)
	d := NewDissector()

	// Datagram 1: Initial (ServerHello) + coalesced Handshake. The
	// Initial must NOT decrypt with the on-wire DCID and must NOT show
	// a ClientHello — the §6 backscatter signature.
	r, err := d.Dissect(flight[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Packets) < 2 {
		t.Fatalf("coalesced packets = %d", len(r.Packets))
	}
	if r.Packets[0].Type != wire.PacketTypeInitial || r.Packets[1].Type != wire.PacketTypeHandshake {
		t.Fatalf("types = %v %v", r.Packets[0].Type, r.Packets[1].Type)
	}
	if r.Packets[0].Decrypted || r.Packets[0].HasClientHello {
		t.Fatal("server initial decrypted by passive observer")
	}
	if len(r.Packets[0].SCID) == 0 {
		t.Fatal("server SCID missing")
	}

	// Remaining datagrams: Handshake-only.
	for _, dgram := range flight[1:] {
		r, err := d.Dissect(dgram)
		if err != nil {
			t.Fatal(err)
		}
		if r.Packets[0].Type != wire.PacketTypeHandshake {
			t.Fatalf("type = %v", r.Packets[0].Type)
		}
	}
}

func TestDissectRejectsNonQUIC(t *testing.T) {
	d := NewDissector()
	for _, payload := range [][]byte{
		nil,
		{},
		{0x00, 0x01, 0x02},       // fixed bit clear, short
		[]byte("GET / HTTP/1.1"), // ascii junk ('G' = 0x47 has fixed bit but too short for 1-RTT)
	} {
		if _, err := d.Dissect(payload); !errors.Is(err, ErrNotQUIC) {
			t.Errorf("Dissect(%x) err = %v, want ErrNotQUIC", payload, err)
		}
	}
	// Unknown version long header fails deep validation.
	junk := []byte{0xc3, 0xde, 0xad, 0xbe, 0xef, 0x02, 1, 2, 0x02, 3, 4, 0x41, 0x00}
	junk = append(junk, make([]byte, 280)...)
	if _, err := d.Dissect(junk); !errors.Is(err, ErrNotQUIC) {
		t.Errorf("unknown-version err = %v", err)
	}
}

func TestDissectVersionNegotiationAndRetry(t *testing.T) {
	d := NewDissector()
	vn := wire.AppendVersionNegotiation(nil, wire.ConnectionID{1, 2}, wire.ConnectionID{3},
		[]wire.Version{wire.Version1, wire.VersionDraft29}, 0x11)
	r, err := d.Dissect(vn)
	if err != nil {
		t.Fatal(err)
	}
	if r.First().Type != wire.PacketTypeVersionNegotiation {
		t.Fatalf("type = %v", r.First().Type)
	}

	retry, err := quiccrypto.BuildRetry(wire.Version1, wire.ConnectionID{5}, wire.ConnectionID{6, 7}, wire.ConnectionID{8, 8}, []byte("tok"))
	if err != nil {
		t.Fatal(err)
	}
	r, err = d.Dissect(retry)
	if err != nil {
		t.Fatal(err)
	}
	if r.First().Type != wire.PacketTypeRetry {
		t.Fatalf("type = %v", r.First().Type)
	}
	if !r.HasType(wire.PacketTypeRetry) || r.HasType(wire.PacketTypeInitial) {
		t.Error("HasType wrong")
	}
}

func TestDissectShortHeader(t *testing.T) {
	d := NewDissector()
	pkt := append([]byte{0x41}, make([]byte, 24)...)
	r, err := d.Dissect(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if r.First().Type != wire.PacketTypeOneRTT {
		t.Fatalf("type = %v", r.First().Type)
	}
	if v := r.Version(); v != 0 {
		t.Fatalf("short-header version = %v", v)
	}
}

func TestClassifyPipeline(t *testing.T) {
	initial, flight := clientInitialAndServerFlight(t, wire.VersionDraft29)
	d := NewDissector()

	req := &telescope.Packet{
		Src: netmodel.MustAddr("103.110.0.5"), Dst: netmodel.MustAddr("44.0.0.1"),
		SrcPort: 40000, DstPort: 443, Proto: telescope.ProtoUDP, Payload: initial,
	}
	if c := d.Classify(req); c != ClassRequest {
		t.Errorf("request classified %v", c)
	}

	resp := &telescope.Packet{
		Src: netmodel.MustAddr("142.250.0.1"), Dst: netmodel.MustAddr("44.0.0.2"),
		SrcPort: 443, DstPort: 51000, Proto: telescope.ProtoUDP, Payload: flight[0],
	}
	if c := d.Classify(resp); c != ClassResponse {
		t.Errorf("response classified %v", c)
	}

	// Port matches but payload is junk: deep validation rejects.
	junk := &telescope.Packet{
		Src: netmodel.MustAddr("1.1.1.1"), Dst: netmodel.MustAddr("44.0.0.3"),
		SrcPort: 12345, DstPort: 443, Proto: telescope.ProtoUDP, Payload: []byte("not quic at all"),
	}
	if c := d.Classify(junk); c != ClassNotQUIC {
		t.Errorf("junk classified %v", c)
	}

	// Metadata-only packets (no payload captured) pass on ports alone.
	thin := &telescope.Packet{
		Src: netmodel.MustAddr("1.1.1.1"), Dst: netmodel.MustAddr("44.0.0.3"),
		SrcPort: 12345, DstPort: 443, Proto: telescope.ProtoUDP,
	}
	if c := d.Classify(thin); c != ClassRequest {
		t.Errorf("thin classified %v", c)
	}

	tcp := &telescope.Packet{Proto: telescope.ProtoTCP, SrcPort: 443, DstPort: 9}
	if c := d.Classify(tcp); c != ClassNotQUIC {
		t.Errorf("tcp classified %v", c)
	}
}

// snapshot copies a reused Result out of the dissector, so results of
// two calls can be compared.
func snapshot(r *Result) Result {
	out := Result{Valid: r.Valid}
	for _, pi := range r.Packets {
		pi.SCID = append(wire.ConnectionID(nil), pi.SCID...)
		pi.DCID = append(wire.ConnectionID(nil), pi.DCID...)
		pi.FrameTypes = append([]wire.FrameType(nil), pi.FrameTypes...)
		out.Packets = append(out.Packets, pi)
	}
	return out
}

// trialOpens is the number of Initial trial opens d has made.
func trialOpens(d *Dissector) uint64 { return d.Metrics.OpenerHits + d.Metrics.OpenerMisses }

// TestDissectOpensClientDirectionOnly pins which packets the dissector
// trial-opens (DESIGN.md §4): Initials in request-direction datagrams
// only. A response-direction datagram is validated and parsed exactly
// as before but never touches the opener; a server flight would not
// open even as a request, because the server seals with its own secret;
// and datagrams without an Initial dissect the same in both directions.
// Classify's answer does not depend on the gate.
func TestDissectOpensClientDirectionOnly(t *testing.T) {
	initial, flight := clientInitialAndServerFlight(t, wire.Version1)
	vn := wire.AppendVersionNegotiation(nil, wire.ConnectionID{1, 2}, wire.ConnectionID{3},
		[]wire.Version{wire.Version1, wire.VersionDraft29}, 0x11)
	retry, err := quiccrypto.BuildRetry(wire.Version1, wire.ConnectionID{5}, wire.ConnectionID{6, 7}, wire.ConnectionID{8, 8}, []byte("tok"))
	if err != nil {
		t.Fatal(err)
	}
	oneRTT := append([]byte{0x41}, make([]byte, 24)...)

	asRequest := func(payload []byte) *telescope.Packet {
		return &telescope.Packet{
			Src: netmodel.MustAddr("103.110.0.5"), Dst: netmodel.MustAddr("44.0.0.1"),
			SrcPort: 40000, DstPort: 443, Proto: telescope.ProtoUDP, Payload: payload,
		}
	}
	asResponse := func(payload []byte) *telescope.Packet {
		return &telescope.Packet{
			Src: netmodel.MustAddr("142.250.0.1"), Dst: netmodel.MustAddr("44.0.0.2"),
			SrcPort: 443, DstPort: 51000, Proto: telescope.ProtoUDP, Payload: payload,
		}
	}
	d := NewDissector()

	// The client Initial as a request opens and yields its ClientHello.
	r, err := d.DissectPacket(asRequest(initial))
	if err != nil {
		t.Fatal(err)
	}
	if pi := r.First(); !pi.Decrypted || !pi.HasClientHello || pi.SNI != "www.google.com" {
		t.Fatalf("request Initial: decrypted=%v hello=%v sni=%q", pi.Decrypted, pi.HasClientHello, pi.SNI)
	}

	// The same bytes as a response: parsed and valid, never opened.
	h, err := wire.ParseLongHeader(initial)
	if err != nil {
		t.Fatal(err)
	}
	opens := trialOpens(d)
	r, err = d.DissectPacket(asResponse(initial))
	if err != nil {
		t.Fatal(err)
	}
	pi := r.First()
	if !r.Valid || pi.Type != wire.PacketTypeInitial || pi.Version != wire.Version1 {
		t.Fatalf("response Initial: valid=%v type=%v version=%v", r.Valid, pi.Type, pi.Version)
	}
	if !bytes.Equal(pi.SCID, h.SrcConnID) || !bytes.Equal(pi.DCID, h.DstConnID) {
		t.Fatalf("response Initial CIDs scid=%s dcid=%s, want %s %s", pi.SCID, pi.DCID, h.SrcConnID, h.DstConnID)
	}
	if pi.Decrypted || pi.HasClientHello {
		t.Fatal("response-direction Initial was opened")
	}
	if got := trialOpens(d); got != opens {
		t.Fatalf("response-direction Initial touched the opener: %d -> %d lookups", opens, got)
	}

	// The server flight dissected as a request is trial-opened and
	// still fails: the gate loses nothing a passive observer could see.
	for i, dgram := range flight {
		opens := trialOpens(d)
		r, err := d.DissectPacket(asRequest(dgram))
		if err != nil {
			t.Fatal(err)
		}
		req := snapshot(r)
		for _, pi := range req.Packets {
			if pi.Decrypted {
				t.Fatalf("flight[%d]: server %v opened with client keys", i, pi.Type)
			}
		}
		if r.HasType(wire.PacketTypeInitial) && trialOpens(d) == opens {
			t.Fatalf("flight[%d]: request-direction Initial was not trial-opened", i)
		}
		r, err = d.DissectPacket(asResponse(dgram))
		if err != nil {
			t.Fatal(err)
		}
		if resp := snapshot(r); !reflect.DeepEqual(req, resp) {
			t.Fatalf("flight[%d]: request %+v, response %+v", i, req, resp)
		}
	}

	// No Initial inside: both directions dissect identically, unopened.
	for name, dgram := range map[string][]byte{"vn": vn, "retry": retry, "handshake": flight[len(flight)-1], "1-rtt": oneRTT} {
		opens := trialOpens(d)
		r, err := d.DissectPacket(asRequest(dgram))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		req := snapshot(r)
		r, err = d.DissectPacket(asResponse(dgram))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp := snapshot(r); !reflect.DeepEqual(req, resp) {
			t.Errorf("%s: request %+v, response %+v", name, req, resp)
		}
		if got := trialOpens(d); got != opens {
			t.Errorf("%s: %d opener lookups without an Initial", name, got-opens)
		}
	}

	for i, dgram := range append([][]byte{initial, vn, retry, oneRTT}, flight...) {
		if c := d.Classify(asRequest(dgram)); c != ClassRequest {
			t.Errorf("datagram %d as request classified %v", i, c)
		}
		if c := d.Classify(asResponse(dgram)); c != ClassResponse {
			t.Errorf("datagram %d as response classified %v", i, c)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassRequest.String() != "request" || ClassResponse.String() != "response" || ClassNotQUIC.String() != "not-quic" {
		t.Error("class strings")
	}
}

func TestPortOnlyAblation(t *testing.T) {
	// With TryDecrypt disabled the dissector must still validate
	// structure but skips ClientHello extraction.
	initial, _ := clientInitialAndServerFlight(t, wire.Version1)
	d := &Dissector{TryDecrypt: false}
	r, err := d.Dissect(initial)
	if err != nil {
		t.Fatal(err)
	}
	if r.First().Decrypted || r.First().HasClientHello {
		t.Fatal("decryption ran despite TryDecrypt=false")
	}
}

func TestResultReuse(t *testing.T) {
	initial, flight := clientInitialAndServerFlight(t, wire.Version1)
	d := NewDissector()
	r1, err := d.Dissect(initial)
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(r1.Packets)
	r2, err := d.Dissect(flight[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("result storage should be reused")
	}
	if len(r2.Packets) == n1 && r2.Packets[0].Decrypted {
		t.Fatal("stale result data")
	}
}
