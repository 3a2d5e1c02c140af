package handshake

import (
	"encoding/binary"
	"errors"
	"testing"

	"quicsand/internal/wire"
)

// A peer that completed the Initial exchange holds Handshake keys, so it
// can send CRYPTO frames at any offset into its peer's Handshake-level
// stream: the stream must fail the connection once they pass
// wire.MaxCryptoBuffer, not hold them.

// keyedPair runs a genuine ClientHello through a server and the server's
// Initial through the client: both then hold Handshake keys, and neither
// Handshake-level stream holds a byte.
func keyedPair(t testing.TB) (*Client, *ServerConn) {
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
	server, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := server.HandleDatagram(first)
	if err != nil {
		t.Fatal(err)
	}
	ih, err := wire.ParseLongHeader(flight[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleDatagram(flight[0][:ih.PacketLen()]); err != nil || client.hsSealer == nil {
		t.Fatalf("client did not take the ServerHello: %v", err)
	}
	return client, server
}

// peer is one side of a keyed pair as its hostile counterpart sees it:
// send seals CRYPTO frames as the counterpart's next Handshake packet and
// hands it over, and stream is the side's Handshake-level stream.
type peer struct {
	send   func(frames ...wire.Frame) error
	stream *wire.CryptoStream
}

// hostileClient is a client holding Handshake keys that talks to server.
func hostileClient(t testing.TB, c *Client, s *ServerConn) peer {
	return peer{
		send: func(frames ...wire.Frame) error {
			pkt, err := sealLongPacket(wire.PacketTypeHandshake, c.version, c.serverCID, c.scid, nil, c.hsSealer, c.pnHandshake, frames, 0)
			if err != nil {
				t.Fatal(err)
			}
			c.pnHandshake++
			_, err = s.HandleDatagram(pkt)
			return err
		},
		stream: &s.hsStream,
	}
}

// hostileServer is a server holding Handshake keys that talks to client,
// as a probed server talks to quicprobe.
func hostileServer(t testing.TB, c *Client, s *ServerConn) peer {
	return peer{
		send: func(frames ...wire.Frame) error {
			pkt, err := sealLongPacket(wire.PacketTypeHandshake, s.version, s.clientCID, s.scid, nil, s.hsSealer, s.pnHandshake, frames, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.pnHandshake++
			_, err = c.HandleDatagram(pkt)
			return err
		},
		stream: &c.hsStream,
	}
}

// hostileStreams are the two ways to make a stream hold bytes: segments
// past a gap that never closes, and an in-order message that never ends.
// Each is a list of one-kilobyte CRYPTO frames, one per packet.
var hostileStreams = []struct {
	name   string
	frames func(i int) (off uint64, data []byte, ok bool)
}{
	{"20000-segments-past-a-gap", func(i int) (uint64, []byte, bool) {
		// Byte 0 never arrives, and the segments come pairwise swapped.
		return 1 + uint64(i^1)*1024, make([]byte, 1024), i < 20000
	}},
	{"16MiB-message-header", func(i int) (uint64, []byte, bool) {
		data := make([]byte, 1024)
		if i == 0 {
			binary.BigEndian.PutUint32(data, 20<<24|(16<<20-1)) // Finished, 16 MiB − 1 body bytes
		}
		return uint64(i) * 1024, data, uint64(i)*1024 < 16<<20
	}},
}

// TestHandshakeLevelCryptoBound: each hostile stream, sent by a client to a
// ServerConn or by a server to a Client, fails the connection with
// CRYPTO_BUFFER_EXCEEDED at the first frame that ends past
// wire.MaxCryptoBuffer, and the stream never holds more.
func TestHandshakeLevelCryptoBound(t *testing.T) {
	for _, side := range []struct {
		name string
		peer func(testing.TB, *Client, *ServerConn) peer
	}{{"server", hostileClient}, {"client", hostileServer}} {
		for _, hs := range hostileStreams {
			t.Run(side.name+"/"+hs.name, func(t *testing.T) {
				c, s := keyedPair(t)
				p := side.peer(t, c, s)
				for i := 0; ; i++ {
					off, data, ok := hs.frames(i)
					if !ok {
						t.Fatalf("%d frames sent, no error; %d bytes buffered", i, p.stream.Buffered())
					}
					err := p.send(&wire.CryptoFrame{Offset: off, Data: data})
					if past := off+uint64(len(data)) > wire.MaxCryptoBuffer; past || err != nil {
						if !past || !errors.Is(err, wire.ErrCryptoBufferExceeded) {
							t.Fatalf("frame %d to offset %d: err %v", i, off+uint64(len(data)), err)
						}
						break
					}
					if p.stream.Buffered() > wire.MaxCryptoBuffer {
						t.Fatalf("frame %d: %d bytes buffered", i, p.stream.Buffered())
					}
				}
				if err := p.send(&wire.PingFrame{}); !errors.Is(err, wire.ErrCryptoBufferExceeded) {
					t.Errorf("failed connection answered again: %v", err)
				}
			})
		}
	}
}

// fuzzPackets decodes a fuzz input into packets of CRYPTO frames. A frame
// is a 3-byte offset whose top bit starts a new packet, a 2-byte length
// (at most 1 024) and that many data bytes, cut short where the input
// ends; a packet also ends before it would pass 1 200 bytes of frames.
func fuzzPackets(in []byte) [][]wire.Frame {
	var pkts [][]wire.Frame
	size := 0
	for len(in) >= 5 {
		off := uint64(in[0]&0x7f)<<16 | uint64(in[1])<<8 | uint64(in[2])
		n := min(int(in[3])<<8|int(in[4]), 1024, len(in)-5)
		f := &wire.CryptoFrame{Offset: off, Data: in[5 : 5+n]}
		if in[0]&0x80 != 0 || len(pkts) == 0 || size+n+10 > 1200 {
			pkts, size = append(pkts, nil), 0
		}
		pkts[len(pkts)-1] = append(pkts[len(pkts)-1], f)
		size += n + 10
		in = in[5+n:]
	}
	return pkts
}

// fuzzFrame encodes one frame of a fuzzPackets input.
func fuzzFrame(newPacket bool, off uint64, data []byte) []byte {
	b := []byte{byte(off >> 16), byte(off >> 8), byte(off), byte(len(data) >> 8), byte(len(data))}
	if newPacket {
		b[0] |= 0x80
	}
	return append(b, data...)
}

// addHandshakeCryptoSeeds seeds a Handshake-level fuzzer: a message
// split out of order over two packets, segments past a gap up to and
// over the bound, a message header claiming 16 MiB, and one packet
// carrying more than wire.MaxCryptoFrames frames.
func addHandshakeCryptoSeeds(f *testing.F) {
	msg := make([]byte, 40)
	msg[0], msg[3] = 20, 36 // Finished, 36 body bytes
	f.Add(append(fuzzFrame(true, 20, msg[20:]), fuzzFrame(true, 0, msg[:20])...))
	var gap, header, many []byte
	for i := 0; i < 18; i++ {
		gap = append(gap, fuzzFrame(true, 1+uint64(i^1)*1000, make([]byte, 1000))...)
		chunk := make([]byte, 1000)
		if i == 0 {
			chunk[0], chunk[1], chunk[2], chunk[3] = 20, 0xff, 0xff, 0xff
		}
		header = append(header, fuzzFrame(true, uint64(i)*1000, chunk)...)
	}
	for i := wire.MaxCryptoFrames; i >= 0; i-- {
		many = append(many, fuzzFrame(false, uint64(i), []byte{1})...)
	}
	f.Add(gap)
	f.Add(header)
	f.Add(many)
}

// fuzzHandshakeCrypto sends the packets an input decodes to from a
// hostile peer: nothing panics, the stream never buffers more than
// wire.MaxCryptoBuffer, and a failed connection stays failed.
func fuzzHandshakeCrypto(f *testing.F, hostile func(testing.TB, *Client, *ServerConn) peer) {
	addHandshakeCryptoSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		c, s := keyedPair(t)
		p := hostile(t, c, s)
		var failed error
		for i, pkt := range fuzzPackets(in) {
			err := p.send(pkt...)
			if failed != nil && err != failed {
				t.Fatalf("packet %d after failure %v: err %v", i, failed, err)
			}
			failed = err
			if p.stream.Buffered() > wire.MaxCryptoBuffer {
				t.Fatalf("packet %d: %d bytes buffered", i, p.stream.Buffered())
			}
		}
	})
}

// FuzzServerHandshakeCrypto: a client holding Handshake keys sends a
// ServerConn arbitrary CRYPTO frames.
func FuzzServerHandshakeCrypto(f *testing.F) { fuzzHandshakeCrypto(f, hostileClient) }

// FuzzClientHandshakeCrypto: a server holding Handshake keys sends a
// Client arbitrary CRYPTO frames.
func FuzzClientHandshakeCrypto(f *testing.F) { fuzzHandshakeCrypto(f, hostileServer) }
