package dissect

import (
	"testing"

	"quicsand/internal/handshake"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Allocation regression bounds for the dissector's two dominant
// telescope paths. The dissector recycles result storage, headers,
// openers, plaintext and crypto buffers; the only steady-state
// allocations left sit inside TLS message parsing (client initials)
// and the AEAD internals of a failed open, which backscatter pays only
// when dissected without its direction. These tests lock the budgets
// so a refactor cannot quietly reintroduce per-packet garbage on the
// 92 M packet stream.

func TestDissectAllocs(t *testing.T) {
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "alloc.test"})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseLongHeader(initial)
	if err != nil {
		t.Fatal(err)
	}
	server, err := handshake.NewServerConn(handshake.ServerConfig{Identity: dissectorIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := server.HandleDatagram(append([]byte(nil), initial...))
	if err != nil {
		t.Fatal(err)
	}

	d := NewDissector()
	// Warm up: populate the opener cache and grow the scratch buffers.
	for i := 0; i < 4; i++ {
		if _, err := d.Dissect(initial); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Dissect(flight[0]); err != nil {
			t.Fatal(err)
		}
	}

	// Backscatter (undecryptable server flight): the overwhelmingly
	// dominant payload class. In its response direction it is never
	// opened, so nothing may allocate; without a direction the failed
	// trial open's AEAD-internal scratch is the budget.
	resp := &telescope.Packet{SrcPort: 443, DstPort: 51000, Proto: telescope.ProtoUDP, Payload: flight[0]}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := d.DissectPacket(resp); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("response-direction backscatter dissect allocates %.1f/op, budget 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := d.Dissect(flight[0]); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Errorf("backscatter dissect allocates %.1f/op, budget 4", avg)
	}

	// Client initial with ClientHello extraction: bounded by TLS
	// message parsing, not per-packet dissector state.
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := d.Dissect(initial); err != nil {
			t.Fatal(err)
		}
	}); avg > 16 {
		t.Errorf("client-initial dissect allocates %.1f/op, budget 16", avg)
	}
}
