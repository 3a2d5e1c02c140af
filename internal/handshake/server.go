package handshake

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"quicsand/internal/quiccrypto"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// ServerConfig parameterizes per-connection server handshakes.
type ServerConfig struct {
	// Identity is the server's certificate and key. Required.
	Identity *tlsmini.Identity
	// ALPN defaults to "h3".
	ALPN string
	// Rand supplies entropy. Defaults to crypto/rand.Reader.
	Rand io.Reader
}

// maxCryptoPerPacket caps CRYPTO frame payloads so the server flight
// splits across datagrams the way the paper observes (Initial+Handshake
// datagram followed by a Handshake-only datagram).
const maxCryptoPerPacket = 960

// ServerConnState tracks a server-side handshake.
type ServerConnState int

// Server connection states.
const (
	ServerStateAwaitingInitial ServerConnState = iota
	ServerStateAwaitingFinished
	ServerStateDone
	ServerStateFailed
)

// String implements fmt.Stringer.
func (s ServerConnState) String() string {
	switch s {
	case ServerStateAwaitingInitial:
		return "awaiting-initial"
	case ServerStateAwaitingFinished:
		return "awaiting-finished"
	case ServerStateDone:
		return "done"
	case ServerStateFailed:
		return "failed"
	}
	return fmt.Sprintf("ServerConnState(%d)", int(s))
}

// ServerConn is the server half of one QUIC handshake. It is created
// when the listener accepts a client Initial (package quicserver owns
// the accept/retry policy).
type ServerConn struct {
	cfg     ServerConfig
	version wire.Version
	state   ServerConnState
	err     error

	clientCID wire.ConnectionID // client's SCID = our DCID
	scid      wire.ConnectionID // our chosen SCID
	odcid     wire.ConnectionID // DCID of the first Initial (keys)

	initialSealer *quiccrypto.Sealer
	initialOpener *quiccrypto.Opener
	hsSealer      *quiccrypto.Sealer
	hsOpener      *quiccrypto.Opener
	appSealer     *quiccrypto.Sealer

	ks        *quiccrypto.KeySchedule
	clientHS  []byte
	serverHS  []byte
	clientApp []byte
	serverApp []byte

	hsStream *cryptoStream

	pnInitial   uint64
	pnHandshake uint64
	pnApp       uint64

	// Anti-amplification (RFC 9000 §8.1): before the client's address
	// is validated, the server may send at most 3× the bytes it
	// received. Excess flight datagrams are deferred until a client
	// Handshake packet (which proves address ownership) arrives.
	validated bool
	budget    int
	deferred  [][]byte

	// DatagramsSent counts server→client datagrams, the quantity
	// Table 1 reports as "Server [# Resp]".
	DatagramsSent int
}

// NewServerConn creates the server side of one connection. version and
// dcid come from the validated client Initial; clientSCID is the
// client's source connection ID.
func NewServerConn(cfg ServerConfig, version wire.Version, dcid, clientSCID wire.ConnectionID) (*ServerConn, error) {
	if cfg.Identity == nil {
		return nil, errors.New("handshake: server identity required")
	}
	if err := describeVersion(version); err != nil {
		return nil, err
	}
	if cfg.ALPN == "" {
		cfg.ALPN = "h3"
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	s := &ServerConn{
		cfg:       cfg,
		version:   version,
		state:     ServerStateAwaitingInitial,
		clientCID: append(wire.ConnectionID(nil), clientSCID...),
		odcid:     append(wire.ConnectionID(nil), dcid...),
		hsStream:  newCryptoStream(),
		ks:        quiccrypto.NewKeySchedule(),
	}
	s.scid = make(wire.ConnectionID, 8)
	if _, err := io.ReadFull(cfg.Rand, s.scid); err != nil {
		return nil, err
	}
	var err error
	if s.initialSealer, err = quiccrypto.NewInitialSealer(version, dcid, quiccrypto.PerspectiveServer); err != nil {
		return nil, err
	}
	if s.initialOpener, err = quiccrypto.NewInitialOpener(version, dcid, quiccrypto.PerspectiveServer); err != nil {
		return nil, err
	}
	return s, nil
}

// Done reports handshake completion.
func (s *ServerConn) Done() bool { return s.state == ServerStateDone }

// SourceCID returns the server's chosen connection ID — the quantity
// Figure 9 counts per attack ("Unique SCIDs").
func (s *ServerConn) SourceCID() wire.ConnectionID { return s.scid }

func (s *ServerConn) fail(err error) error {
	s.state = ServerStateFailed
	s.err = err
	return err
}

// HandleDatagram processes a client datagram, returning response
// datagrams. The first datagram must carry the client Initial
// (validated for size by the caller per RFC 9000 §14.1).
func (s *ServerConn) HandleDatagram(data []byte) ([][]byte, error) {
	if s.state == ServerStateFailed {
		return nil, s.err
	}
	s.budget += 3 * len(data)
	var out [][]byte
	for len(data) > 0 {
		if !wire.IsLongHeader(data) {
			break // 1-RTT or padding garbage after handshake packets
		}
		h, err := wire.ParseLongHeader(data)
		if err != nil {
			// Trailing coalesced junk after a valid packet is ignored,
			// matching permissive server behaviour.
			if len(out) > 0 {
				break
			}
			return out, s.fail(err)
		}
		resp, err := s.handlePacket(h, data[:h.PacketLen()])
		if err != nil {
			return out, s.fail(err)
		}
		out = append(out, resp...)
		data = data[h.PacketLen():]
	}
	out = s.limitAmplification(out)
	s.DatagramsSent += len(out)
	return out, nil
}

// limitAmplification enforces the 3× pre-validation send budget,
// deferring excess datagrams until the client is validated.
func (s *ServerConn) limitAmplification(out [][]byte) [][]byte {
	if s.validated {
		flushed := append(s.deferred, out...)
		s.deferred = nil
		return flushed
	}
	var allowed [][]byte
	for i, d := range out {
		if len(d) > s.budget {
			s.deferred = append(s.deferred, out[i:]...)
			break
		}
		s.budget -= len(d)
		allowed = append(allowed, d)
	}
	return allowed
}

func (s *ServerConn) handlePacket(h *wire.Header, pkt []byte) ([][]byte, error) {
	switch h.Type {
	case wire.PacketTypeInitial:
		if s.state != ServerStateAwaitingInitial {
			return nil, nil // duplicate Initial; ignore
		}
		payload, _, err := s.initialOpener.Open(pkt, h.HeaderLen())
		if err != nil {
			return nil, err
		}
		frames, err := wire.ParseFrames(payload)
		if err != nil {
			return nil, err
		}
		crypto, err := wire.CryptoData(frames)
		if err != nil {
			return nil, err
		}
		msgs, err := tlsmini.SplitMessages(crypto)
		if err != nil {
			return nil, err
		}
		if len(msgs) != 1 || msgs[0].Type != tlsmini.TypeClientHello {
			return nil, fmt.Errorf("%w: want ClientHello in Initial", ErrUnexpectedMessage)
		}
		return s.processClientHello(msgs[0])

	case wire.PacketTypeHandshake:
		if s.hsOpener == nil {
			return nil, fmt.Errorf("%w: Handshake before ServerHello sent", ErrUnexpectedMessage)
		}
		// A Handshake packet can only be built with server-supplied
		// keys: the address is validated (RFC 9000 §8.1).
		s.validated = true
		payload, _, err := s.hsOpener.Open(pkt, h.HeaderLen())
		if err != nil {
			return nil, err
		}
		frames, err := wire.ParseFrames(payload)
		if err != nil {
			return nil, err
		}
		for _, f := range frames {
			if cf, ok := f.(*wire.CryptoFrame); ok {
				s.hsStream.add(cf)
			}
		}
		return s.processClientFinished()
	}
	return nil, nil
}

// processClientHello runs the TLS server flight and returns the
// datagrams of the server's first response: Initial(SH)+Handshake(...)
// coalesced, then Handshake-only datagrams for the remainder.
func (s *ServerConn) processClientHello(m tlsmini.Message) ([][]byte, error) {
	ch, err := tlsmini.ParseClientHello(m.Body)
	if err != nil {
		return nil, err
	}
	suiteOK := false
	for _, suite := range ch.CipherSuites {
		if suite == tlsmini.SuiteAES128GCMSHA256 {
			suiteOK = true
			break
		}
	}
	if !suiteOK {
		return nil, errors.New("handshake: no common cipher suite")
	}
	if len(ch.KeyShareX25519) == 0 {
		return nil, errors.New("handshake: client hello missing x25519 key share")
	}
	clientPub, err := ecdh.X25519().NewPublicKey(ch.KeyShareX25519)
	if err != nil {
		return nil, err
	}
	priv, err := x25519Key(s.cfg.Rand)
	if err != nil {
		return nil, err
	}
	shared, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, err
	}

	sh := &tlsmini.ServerHello{
		SessionIDEcho:  ch.SessionID,
		CipherSuite:    tlsmini.SuiteAES128GCMSHA256,
		KeyShareX25519: priv.PublicKey().Bytes(),
	}
	if _, err := io.ReadFull(s.cfg.Rand, sh.Random[:]); err != nil {
		return nil, err
	}
	shRaw := sh.Marshal()

	s.ks.WriteTranscript(m.Raw)
	s.ks.WriteTranscript(shRaw)
	s.clientHS, s.serverHS = s.ks.SetHandshakeSecrets(shared)
	if s.hsSealer, err = quiccrypto.NewSealer(s.serverHS); err != nil {
		return nil, err
	}
	if s.hsOpener, err = quiccrypto.NewOpener(s.clientHS); err != nil {
		return nil, err
	}

	// Build the encrypted server flight: EE, Certificate,
	// CertificateVerify (signed over the running transcript), Finished.
	ee := (&tlsmini.EncryptedExtensions{
		ALPN:            s.cfg.ALPN,
		TransportParams: []byte{0x01, 0x04, 0x80, 0x00, 0xea, 0x60},
		DraftParams:     s.version != wire.Version1,
	}).Marshal()
	s.ks.WriteTranscript(ee)
	certMsg := (&tlsmini.Certificate{Chain: [][]byte{s.cfg.Identity.CertDER}}).Marshal()
	s.ks.WriteTranscript(certMsg)
	sig, err := tlsmini.SignTranscript(s.cfg.Rand, s.cfg.Identity.Key, s.ks.TranscriptHash())
	if err != nil {
		return nil, err
	}
	cvMsg := (&tlsmini.CertificateVerify{Scheme: tlsmini.SchemeECDSAP256, Signature: sig}).Marshal()
	s.ks.WriteTranscript(cvMsg)
	finMsg := (&tlsmini.Finished{VerifyData: s.ks.FinishedMAC(s.serverHS)}).Marshal()
	s.ks.WriteTranscript(finMsg)
	// Application secrets cover the transcript through the server
	// Finished (RFC 8446 §7.1).
	s.clientApp, s.serverApp = s.ks.SetMasterSecrets()

	hsFlight := make([]byte, 0, len(ee)+len(certMsg)+len(cvMsg)+len(finMsg))
	hsFlight = append(hsFlight, ee...)
	hsFlight = append(hsFlight, certMsg...)
	hsFlight = append(hsFlight, cvMsg...)
	hsFlight = append(hsFlight, finMsg...)

	// Initial packet: ACK the client Initial and carry the SH.
	initialPkt, err := sealLongPacket(wire.PacketTypeInitial, s.version, s.clientCID, s.scid,
		nil, s.initialSealer, s.pnInitial, []wire.Frame{ackFor(0), &wire.CryptoFrame{Offset: 0, Data: shRaw}}, 0)
	if err != nil {
		return nil, err
	}
	s.pnInitial++

	// Handshake packets: split the flight per maxCryptoPerPacket.
	var hsPackets [][]byte
	for _, cf := range splitCrypto(hsFlight, 0, maxCryptoPerPacket) {
		pkt, err := sealLongPacket(wire.PacketTypeHandshake, s.version, s.clientCID, s.scid,
			nil, s.hsSealer, s.pnHandshake, []wire.Frame{cf}, 0)
		if err != nil {
			return nil, err
		}
		s.pnHandshake++
		hsPackets = append(hsPackets, pkt)
	}

	// Datagram 1: Initial + first Handshake packet coalesced — the
	// pattern the paper identifies in backscatter (§6: one third
	// Initial, two thirds Handshake messages).
	var out [][]byte
	d1 := initialPkt
	if len(hsPackets) > 0 {
		d1 = append(d1, hsPackets[0]...)
		hsPackets = hsPackets[1:]
	}
	out = append(out, d1)
	out = append(out, hsPackets...)

	s.state = ServerStateAwaitingFinished
	return out, nil
}

// processClientFinished verifies the client Finished and completes the
// handshake, emitting a 1-RTT HANDSHAKE_DONE datagram.
func (s *ServerConn) processClientFinished() ([][]byte, error) {
	for _, m := range s.hsStream.messages() {
		if m.Type != tlsmini.TypeFinished {
			return nil, fmt.Errorf("%w: %v from client at handshake level", ErrUnexpectedMessage, m.Type)
		}
		if !s.ks.VerifyFinished(s.clientHS, m.Body) {
			return nil, fmt.Errorf("%w: bad client Finished", ErrAuthFailure)
		}
		s.ks.WriteTranscript(m.Raw)
		var err error
		if s.appSealer, err = quiccrypto.NewSealer(s.serverApp); err != nil {
			return nil, err
		}
		s.state = ServerStateDone
		done, err := sealShortPacket(s.clientCID, s.appSealer, s.pnApp, []wire.Frame{&wire.HandshakeDoneFrame{}})
		if err != nil {
			return nil, err
		}
		s.pnApp++
		return [][]byte{done}, nil
	}
	return nil, nil
}

// KeepAlivePings builds n Handshake-level PING datagrams — the
// keep-alive probes NGINX sends when a handshake stalls, which make up
// the third and fourth response datagrams in Table 1's accounting.
func (s *ServerConn) KeepAlivePings(n int) ([][]byte, error) {
	if s.hsSealer == nil {
		return nil, errors.New("handshake: no handshake keys yet")
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		pkt, err := sealLongPacket(wire.PacketTypeHandshake, s.version, s.clientCID, s.scid,
			nil, s.hsSealer, s.pnHandshake, []wire.Frame{&wire.PingFrame{}}, 0)
		if err != nil {
			return nil, err
		}
		s.pnHandshake++
		out = append(out, pkt)
	}
	s.DatagramsSent += len(out)
	return out, nil
}

// x25519Key draws a key deterministically from r: GenerateKey may
// consume a coin-flip extra byte (randutil.MaybeReadByte), which would
// shift a seeded reader's stream between runs, so the 32-byte scalar
// is read explicitly.
func x25519Key(r io.Reader) (*ecdh.PrivateKey, error) {
	var scalar [32]byte
	if _, err := io.ReadFull(r, scalar[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(scalar[:])
}
