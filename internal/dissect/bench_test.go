package dissect

import (
	"testing"

	"quicsand/internal/handshake"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

func BenchmarkDissectClientInitial(b *testing.B) {
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "bench.test"})
	if err != nil {
		b.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		b.Fatal(err)
	}
	d := NewDissector()
	b.SetBytes(int64(len(initial)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Dissect(initial); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDissectBackscatter(b *testing.B) {
	// Server flight: undecryptable by a passive observer — the
	// dominant packet class in the telescope's response stream.
	client, _ := handshake.NewClient(handshake.ClientConfig{ServerName: "bench.test"})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)
	id := benchIdent(b)
	server, err := handshake.NewServerConn(handshake.ServerConfig{Identity: id}, wire.Version1, h.DstConnID, h.SrcConnID)
	if err != nil {
		b.Fatal(err)
	}
	flight, err := server.HandleDatagram(first)
	if err != nil {
		b.Fatal(err)
	}
	// unknown: Dissect without a direction pays the doomed trial open;
	// response: the packet form skips it.
	b.Run("unknown", func(b *testing.B) {
		d := NewDissector()
		b.SetBytes(int64(len(flight[0])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Dissect(flight[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response", func(b *testing.B) {
		d := NewDissector()
		p := &telescope.Packet{SrcPort: 443, DstPort: 51000, Proto: telescope.ProtoUDP, Payload: flight[0]}
		b.SetBytes(int64(len(flight[0])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.DissectPacket(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchIdent(b *testing.B) *tlsmini.Identity {
	b.Helper()
	return dissectorIdentity
}
