package handshake

import (
	"bytes"
	"errors"
	"testing"

	"quicsand/internal/quiccrypto"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

var testIdentity *tlsmini.Identity

func init() {
	id, err := tlsmini.GenerateSelfSigned("quicsand.test", 600)
	if err != nil {
		panic(err)
	}
	testIdentity = id
}

// runHandshake pumps datagrams between client and server until both
// complete or progress stalls.
func runHandshake(t *testing.T, version wire.Version) (*Client, *ServerConn) {
	t.Helper()
	client, err := NewClient(ClientConfig{Version: version, ServerName: "quicsand.test"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < MinInitialDatagramSize {
		t.Fatalf("client initial datagram %d bytes, want ≥ %d", len(first), MinInitialDatagramSize)
	}

	h, err := wire.ParseLongHeader(first)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServerConn(ServerConfig{Identity: testIdentity}, version, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}

	toServer := [][]byte{first}
	for i := 0; i < 10 && (!client.Done() || !server.Done()); i++ {
		var toClient [][]byte
		for _, d := range toServer {
			resp, err := server.HandleDatagram(d)
			if err != nil {
				t.Fatalf("server: %v", err)
			}
			toClient = append(toClient, resp...)
		}
		toServer = nil
		for _, d := range toClient {
			resp, err := client.HandleDatagram(d)
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			toServer = append(toServer, resp...)
		}
	}
	return client, server
}

func TestFullHandshakeAllVersions(t *testing.T) {
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27} {
		t.Run(v.String(), func(t *testing.T) {
			client, server := runHandshake(t, v)
			if !client.Done() {
				t.Fatalf("client state %v, err %v", client.State(), client.Err())
			}
			if !server.Done() {
				t.Fatalf("server state %v, err %v", server.State(), server.Err())
			}
			ca, sa := client.AppSecrets()
			ca2, sa2 := server.AppSecrets()
			if !bytes.Equal(ca, ca2) || !bytes.Equal(sa, sa2) {
				t.Fatal("application secrets disagree")
			}
			if len(ca) != 32 || bytes.Equal(ca, sa) {
				t.Fatal("implausible app secrets")
			}
			if !bytes.Equal(client.ServerCID(), server.SourceCID()) {
				t.Fatal("client did not learn server CID")
			}
		})
	}
}

func TestServerFlightShape(t *testing.T) {
	// The paper (§6) observes the server response as one datagram with
	// Initial+Handshake coalesced followed by Handshake-only
	// datagram(s): verify that structure.
	client, _ := NewClient(ClientConfig{ServerName: "a.test"})
	first, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := wire.ParseLongHeader(first)
	server, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := server.HandleDatagram(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 2 {
		t.Fatalf("server flight = %d datagrams, want ≥ 2", len(resp))
	}

	// First datagram: Initial followed by Handshake.
	h1, err := wire.ParseLongHeader(resp[0])
	if err != nil {
		t.Fatal(err)
	}
	if h1.Type != wire.PacketTypeInitial {
		t.Fatalf("first packet = %v", h1.Type)
	}
	rest := resp[0][h1.PacketLen():]
	if len(rest) == 0 {
		t.Fatal("first datagram has no coalesced handshake packet")
	}
	h2, err := wire.ParseLongHeader(rest)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Type != wire.PacketTypeHandshake {
		t.Fatalf("coalesced packet = %v", h2.Type)
	}

	// Subsequent datagrams: Handshake only.
	for i, d := range resp[1:] {
		hd, err := wire.ParseLongHeader(d)
		if err != nil {
			t.Fatalf("datagram %d: %v", i+1, err)
		}
		if hd.Type != wire.PacketTypeHandshake {
			t.Fatalf("datagram %d type = %v", i+1, hd.Type)
		}
	}

	// Message-type mix: the flight should be 1 Initial packet and ≥2
	// Handshake packets (the paper's one-third/two-thirds split).
	nInitial, nHandshake := 0, 0
	for _, d := range resp {
		for len(d) > 0 {
			hd, err := wire.ParseLongHeader(d)
			if err != nil {
				break
			}
			switch hd.Type {
			case wire.PacketTypeInitial:
				nInitial++
			case wire.PacketTypeHandshake:
				nHandshake++
			}
			d = d[hd.PacketLen():]
		}
	}
	if nInitial != 1 || nHandshake < 1 {
		t.Fatalf("flight mix: %d Initial, %d Handshake", nInitial, nHandshake)
	}
}

func TestRetryFlow(t *testing.T) {
	client, err := NewClient(ClientConfig{ServerName: "retry.test"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := wire.ParseLongHeader(first)

	// Server demands address validation: send Retry with a new SCID.
	retrySCID := wire.ConnectionID{9, 8, 7, 6, 5, 4, 3, 2}
	token := []byte("validation-token-xyz")
	retry, err := quiccrypto.BuildRetry(wire.Version1, h.SrcConnID, retrySCID, h.DstConnID, token)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.HandleDatagram(retry)
	if err != nil {
		t.Fatal(err)
	}
	if !client.SawRetry() {
		t.Fatal("client did not record retry")
	}
	if len(resp) != 1 {
		t.Fatalf("client sent %d datagrams after retry", len(resp))
	}
	h2, err := wire.ParseLongHeader(resp[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h2.Token, token) {
		t.Fatalf("token not echoed: %x", h2.Token)
	}
	if !bytes.Equal(h2.DstConnID, retrySCID) {
		t.Fatalf("dcid = %v, want retry SCID", h2.DstConnID)
	}

	// Handshake completes against a server keyed on the new DCID.
	server, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h2.DstConnID, h2.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	toServer := resp
	for i := 0; i < 10 && !client.Done(); i++ {
		var toClient [][]byte
		for _, d := range toServer {
			r, err := server.HandleDatagram(d)
			if err != nil {
				t.Fatal(err)
			}
			toClient = append(toClient, r...)
		}
		toServer = nil
		for _, d := range toClient {
			r, err := client.HandleDatagram(d)
			if err != nil {
				t.Fatal(err)
			}
			toServer = append(toServer, r...)
		}
	}
	if !client.Done() {
		t.Fatalf("client did not complete after retry: %v", client.State())
	}
}

func TestRetryWithBadIntegrityTagRejected(t *testing.T) {
	client, _ := NewClient(ClientConfig{})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)
	retry, _ := quiccrypto.BuildRetry(wire.Version1, h.SrcConnID, wire.ConnectionID{1}, h.DstConnID, []byte("t"))
	retry[len(retry)-1] ^= 0xff
	if _, err := client.HandleDatagram(retry); !errors.Is(err, quiccrypto.ErrDecryptFailed) {
		t.Fatalf("err = %v", err)
	}
	if client.State() != ClientStateFailed {
		t.Fatalf("state = %v", client.State())
	}
}

func TestVersionNegotiationFlow(t *testing.T) {
	client, err := NewClient(ClientConfig{
		Version:           wire.VersionDraft27,
		SupportedVersions: []wire.Version{wire.VersionDraft27, wire.Version1},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := wire.ParseLongHeader(first)

	// Server only speaks v1: answer with Version Negotiation.
	vn := wire.AppendVersionNegotiation(nil, wire.ConnectionID{0xee}, h.SrcConnID, Version1Only(), 0x2a)
	resp, err := client.HandleDatagram(vn)
	if err != nil {
		t.Fatal(err)
	}
	if !client.SawVersionNegotiation() {
		t.Fatal("VN not recorded")
	}
	if client.Version() != wire.Version1 {
		t.Fatalf("negotiated %v", client.Version())
	}
	if len(resp) != 1 {
		t.Fatalf("%d datagrams after VN", len(resp))
	}
	h2, _ := wire.ParseLongHeader(resp[0])
	if h2.Version != wire.Version1 {
		t.Fatalf("re-sent initial version %v", h2.Version)
	}
}

// Version1Only exists to keep the VN test body tidy.
func Version1Only() []wire.Version { return []wire.Version{wire.Version1} }

func TestVersionNegotiationNoOverlap(t *testing.T) {
	client, _ := NewClient(ClientConfig{
		Version:           wire.VersionDraft29,
		SupportedVersions: []wire.Version{wire.VersionDraft29},
	})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)
	vn := wire.AppendVersionNegotiation(nil, wire.ConnectionID{1}, h.SrcConnID, []wire.Version{wire.VersionMVFST27}, 0)
	if _, err := client.HandleDatagram(vn); !errors.Is(err, ErrVersionUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerRejectsGarbageInitial(t *testing.T) {
	client, _ := NewClient(ClientConfig{})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)

	// Flip a payload byte: AEAD must fail.
	bad := append([]byte{}, first...)
	bad[len(bad)-1] ^= 1
	server, _ := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)
	if _, err := server.HandleDatagram(bad); !errors.Is(err, quiccrypto.ErrDecryptFailed) {
		t.Fatalf("err = %v", err)
	}
	if server.State() != ServerStateFailed {
		t.Fatalf("state = %v", server.State())
	}
}

func TestServerKeepAlivePings(t *testing.T) {
	client, _ := NewClient(ClientConfig{})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)
	server, _ := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)

	if _, err := server.KeepAlivePings(2); err == nil {
		t.Fatal("pings before handshake keys should fail")
	}
	flight, err := server.HandleDatagram(first)
	if err != nil {
		t.Fatal(err)
	}
	// Give the client its handshake keys so it can open the pings.
	for _, d := range flight {
		if _, err := client.HandleDatagram(d); err != nil {
			t.Fatal(err)
		}
	}
	pings, err := server.KeepAlivePings(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pings) != 2 {
		t.Fatalf("%d pings", len(pings))
	}
	for _, p := range pings {
		hp, err := wire.ParseLongHeader(p)
		if err != nil || hp.Type != wire.PacketTypeHandshake {
			t.Fatalf("ping packet: %v %v", hp, err)
		}
	}
	// Client can decrypt the pings (it has handshake keys by now).
	if _, err := client.HandleDatagram(pings[0]); err != nil {
		t.Fatalf("client rejected ping: %v", err)
	}
}

// TestWrongVersionInitialUndecryptable asserts the property the
// dissector relies on: Initials protected under one version's salt do
// not decrypt under another's.
func TestWrongVersionInitialUndecryptable(t *testing.T) {
	client, _ := NewClient(ClientConfig{Version: wire.VersionDraft29})
	first, _ := client.Start()
	h, _ := wire.ParseLongHeader(first)

	_, err := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version(0x5555), h.DstConnID, h.SrcConnID)
	if err == nil {
		t.Fatal("unknown version accepted")
	}
	server, _ := NewServerConn(ServerConfig{Identity: testIdentity}, wire.Version1, h.DstConnID, h.SrcConnID)
	if _, err := server.HandleDatagram(first); !errors.Is(err, quiccrypto.ErrDecryptFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDatagramCounters(t *testing.T) {
	client, server := runHandshake(t, wire.Version1)
	if client.DatagramsSent < 2 { // Initial + Finished
		t.Errorf("client sent %d datagrams", client.DatagramsSent)
	}
	if server.DatagramsSent < 3 { // flight (≥2) + HANDSHAKE_DONE
		t.Errorf("server sent %d datagrams", server.DatagramsSent)
	}
	if client.DatagramsReceived < 2 {
		t.Errorf("client received %d datagrams", client.DatagramsReceived)
	}
}

func TestStateStrings(t *testing.T) {
	if ClientStateDone.String() != "done" || ServerStateAwaitingFinished.String() != "awaiting-finished" {
		t.Error("state strings")
	}
	if ClientState(42).String() == "" || ServerConnState(42).String() == "" {
		t.Error("unknown state strings empty")
	}
}

// TestCryptoStreamReordering: a Handshake level's stream yields a
// message once its halves arrived, in any order over two packets, and
// the message keeps its bytes while the stream takes the next packet's.
func TestCryptoStreamReordering(t *testing.T) {
	var cs wire.CryptoStream
	msg := (&tlsmini.Finished{VerifyData: bytes.Repeat([]byte{7}, 32)}).Marshal()
	next := (&tlsmini.Finished{VerifyData: bytes.Repeat([]byte{8}, 32)}).Marshal()
	// Deliver the second half first.
	if err := cs.Add(20, msg[20:]); err != nil {
		t.Fatal(err)
	}
	if got := levelMessages(&cs); len(got) != 0 {
		t.Fatalf("premature messages: %d", len(got))
	}
	if err := cs.Add(0, msg[:20]); err != nil {
		t.Fatal(err)
	}
	got := levelMessages(&cs)
	if len(got) != 1 || got[0].Type != tlsmini.TypeFinished {
		t.Fatalf("got %+v", got)
	}
	if err := cs.Add(uint64(len(msg)), next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0].Raw, msg) || cs.Buffered() != len(next) {
		t.Fatalf("reassembled bytes differ, or %d bytes buffered", cs.Buffered())
	}
}

// State returns the current handshake state.
func (c *Client) State() ClientState { return c.state }

// Err returns the failure cause once State is ClientStateFailed.
func (c *Client) Err() error { return c.err }

// SourceCID returns the client's connection ID.
func (c *Client) SourceCID() wire.ConnectionID { return c.scid }

// ServerCID returns the server's chosen SCID once the first server
// packet arrived (nil before).
func (c *Client) ServerCID() wire.ConnectionID { return c.serverCID }

// AppSecrets returns the 1-RTT traffic secrets after completion.
func (c *Client) AppSecrets() (client, server []byte) { return c.clientApp, c.serverApp }

// State returns the connection's handshake state.
func (s *ServerConn) State() ServerConnState { return s.state }

// Err returns the failure cause once State is ServerStateFailed.
func (s *ServerConn) Err() error { return s.err }

// AppSecrets returns the 1-RTT traffic secrets after completion.
func (s *ServerConn) AppSecrets() (client, server []byte) { return s.clientApp, s.serverApp }
