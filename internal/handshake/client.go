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

// ClientConfig parameterizes a handshake client.
type ClientConfig struct {
	// Version is the initial version to offer. Defaults to v1.
	Version wire.Version
	// SupportedVersions are acceptable outcomes of version
	// negotiation. Defaults to wire.DefaultSupportedVersions.
	SupportedVersions []wire.Version
	// ServerName is the SNI value.
	ServerName string
	// ALPN defaults to "h3".
	ALPN string
	// Rand supplies entropy (connection IDs, TLS random, ECDHE key).
	// Defaults to crypto/rand.Reader. Tests inject deterministic
	// readers.
	Rand io.Reader
	// EmptySCID makes the client use a zero-length source connection
	// ID, the configuration whose backscatter carries DCID length
	// zero (the property the paper verifies on captured responses).
	EmptySCID bool
}

// ClientState tracks handshake progress.
type ClientState int

// Client handshake states.
const (
	ClientStateInitialSent ClientState = iota
	ClientStateHandshaking
	ClientStateDone
	ClientStateFailed
)

// String implements fmt.Stringer.
func (s ClientState) String() string {
	switch s {
	case ClientStateInitialSent:
		return "initial-sent"
	case ClientStateHandshaking:
		return "handshaking"
	case ClientStateDone:
		return "done"
	case ClientStateFailed:
		return "failed"
	}
	return fmt.Sprintf("ClientState(%d)", int(s))
}

// Client is a QUIC handshake client state machine. Feed server
// datagrams via HandleDatagram; outgoing datagrams are returned from
// Start and HandleDatagram.
type Client struct {
	cfg     ClientConfig
	version wire.Version
	state   ClientState
	err     error

	scid wire.ConnectionID // ours
	dcid wire.ConnectionID // original destination (pre-handshake random)

	serverCID wire.ConnectionID // server's chosen SCID, once seen
	token     []byte            // retry token

	initialSealer *quiccrypto.Sealer
	initialOpener *quiccrypto.Opener
	hsSealer      *quiccrypto.Sealer
	hsOpener      *quiccrypto.Opener

	ks        *quiccrypto.KeySchedule
	ecdhPriv  *ecdh.PrivateKey
	chRaw     []byte
	hsStream  *cryptoStream
	clientHS  []byte
	serverHS  []byte
	clientApp []byte
	serverApp []byte

	pnInitial   uint64
	pnHandshake uint64

	certChain *tlsmini.Certificate

	sawRetry bool
	sawVN    bool

	// Stats observable by experiments.
	DatagramsSent     int
	DatagramsReceived int
}

// NewClient creates a client for the given configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Version == 0 {
		cfg.Version = wire.Version1
	}
	if err := describeVersion(cfg.Version); err != nil {
		return nil, err
	}
	if len(cfg.SupportedVersions) == 0 {
		cfg.SupportedVersions = wire.DefaultSupportedVersions
	}
	if cfg.ALPN == "" {
		cfg.ALPN = "h3"
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	c := &Client{cfg: cfg, version: cfg.Version, hsStream: newCryptoStream()}
	if !cfg.EmptySCID {
		c.scid = make(wire.ConnectionID, 8)
		if _, err := io.ReadFull(cfg.Rand, c.scid); err != nil {
			return nil, err
		}
	}
	c.dcid = make(wire.ConnectionID, 8)
	if _, err := io.ReadFull(cfg.Rand, c.dcid); err != nil {
		return nil, err
	}
	return c, nil
}

// Done reports handshake completion.
func (c *Client) Done() bool { return c.state == ClientStateDone }

// SawRetry reports whether the server demanded address validation —
// the paper's §6 probe checks exactly this.
func (c *Client) SawRetry() bool { return c.sawRetry }

// SawVersionNegotiation reports whether version negotiation occurred.
func (c *Client) SawVersionNegotiation() bool { return c.sawVN }

// Version returns the (possibly renegotiated) wire version in use.
func (c *Client) Version() wire.Version { return c.version }

// Start produces the client's first flight: one Initial datagram
// padded to 1200 bytes.
func (c *Client) Start() ([]byte, error) {
	priv, err := x25519Key(c.cfg.Rand)
	if err != nil {
		return nil, err
	}
	c.ecdhPriv = priv

	ch := &tlsmini.ClientHello{
		ServerName:      c.cfg.ServerName,
		ALPN:            []string{c.cfg.ALPN},
		CipherSuites:    []uint16{tlsmini.SuiteAES128GCMSHA256},
		KeyShareX25519:  priv.PublicKey().Bytes(),
		TransportParams: []byte{0x01, 0x04, 0x80, 0x00, 0xea, 0x60}, // max_idle_timeout=60s
		DraftParams:     c.version != wire.Version1,
	}
	if _, err := io.ReadFull(c.cfg.Rand, ch.Random[:]); err != nil {
		return nil, err
	}
	c.chRaw = ch.Marshal()
	c.ks = quiccrypto.NewKeySchedule()
	c.ks.WriteTranscript(c.chRaw)
	return c.sendInitial()
}

// sendInitial (re)derives initial keys for the current dcid and builds
// the Initial datagram carrying the ClientHello (and token if any).
func (c *Client) sendInitial() ([]byte, error) {
	var err error
	c.initialSealer, err = quiccrypto.NewInitialSealer(c.version, c.dcid, quiccrypto.PerspectiveClient)
	if err != nil {
		return nil, err
	}
	c.initialOpener, err = quiccrypto.NewInitialOpener(c.version, c.dcid, quiccrypto.PerspectiveClient)
	if err != nil {
		return nil, err
	}
	frames := []wire.Frame{&wire.CryptoFrame{Offset: 0, Data: c.chRaw}}
	pkt, err := sealLongPacket(wire.PacketTypeInitial, c.version, c.dcid, c.scid,
		c.token, c.initialSealer, c.pnInitial, frames, MinInitialDatagramSize)
	if err != nil {
		return nil, err
	}
	c.pnInitial++
	c.state = ClientStateInitialSent
	c.DatagramsSent++
	return pkt, nil
}

// HandleDatagram processes one server datagram and returns any
// datagrams the client must send in response.
func (c *Client) HandleDatagram(data []byte) ([][]byte, error) {
	if c.state == ClientStateFailed {
		return nil, c.err
	}
	c.DatagramsReceived++
	var out [][]byte
	for len(data) > 0 {
		if !wire.IsLongHeader(data) {
			// 1-RTT packet (e.g. HANDSHAKE_DONE); nothing to do at
			// handshake level.
			break
		}
		h, err := wire.ParseLongHeader(data)
		if err != nil {
			return out, c.fail(err)
		}
		resp, err := c.handlePacket(h, data[:h.PacketLen()])
		if err != nil {
			return out, c.fail(err)
		}
		out = append(out, resp...)
		data = data[h.PacketLen():]
	}
	return out, nil
}

func (c *Client) fail(err error) error {
	c.state = ClientStateFailed
	c.err = err
	return err
}

func (c *Client) handlePacket(h *wire.Header, pkt []byte) ([][]byte, error) {
	switch h.Type {
	case wire.PacketTypeVersionNegotiation:
		if c.sawVN || c.sawRetry {
			return nil, nil // at most one VN round
		}
		v, err := negotiateVersion(c.cfg.SupportedVersions, h.SupportedVersions)
		if err != nil {
			return nil, err
		}
		c.sawVN = true
		c.version = v
		c.pnInitial = 0
		d, err := c.sendInitial()
		if err != nil {
			return nil, err
		}
		return [][]byte{d}, nil

	case wire.PacketTypeRetry:
		if c.sawRetry {
			return nil, nil // ignore duplicate retries
		}
		if err := quiccrypto.VerifyRetryIntegrity(c.version, c.dcid, pkt); err != nil {
			return nil, err
		}
		c.sawRetry = true
		c.token = append([]byte(nil), h.RetryToken...)
		c.dcid = append(wire.ConnectionID(nil), h.SrcConnID...)
		d, err := c.sendInitial()
		if err != nil {
			return nil, err
		}
		return [][]byte{d}, nil

	case wire.PacketTypeInitial:
		payload, _, err := c.initialOpener.Open(pkt, h.HeaderLen())
		if err != nil {
			return nil, err
		}
		c.serverCID = append(wire.ConnectionID(nil), h.SrcConnID...)
		frames, err := wire.ParseFrames(payload)
		if err != nil {
			return nil, err
		}
		crypto, err := wire.CryptoData(frames)
		if err != nil {
			return nil, err
		}
		if len(crypto) == 0 {
			return nil, nil // pure ACK
		}
		msgs, err := tlsmini.SplitMessages(crypto)
		if err != nil {
			return nil, err
		}
		for _, m := range msgs {
			if m.Type != tlsmini.TypeServerHello {
				return nil, fmt.Errorf("%w: %v in Initial", ErrUnexpectedMessage, m.Type)
			}
			if err := c.processServerHello(m); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case wire.PacketTypeHandshake:
		if c.hsOpener == nil {
			return nil, fmt.Errorf("%w: Handshake packet before ServerHello", ErrUnexpectedMessage)
		}
		payload, pn, err := c.hsOpener.Open(pkt, h.HeaderLen())
		if err != nil {
			return nil, err
		}
		frames, err := wire.ParseFrames(payload)
		if err != nil {
			return nil, err
		}
		ackEliciting := false
		for _, f := range frames {
			switch fr := f.(type) {
			case *wire.CryptoFrame:
				c.hsStream.add(fr)
				ackEliciting = true
			case *wire.PingFrame:
				ackEliciting = true
			}
		}
		out, err := c.processHandshakeMessages()
		if err != nil {
			return nil, err
		}
		if len(out) == 0 && ackEliciting && !c.Done() {
			// Ack-eliciting Handshake data with nothing else to say:
			// answer with an ACK-only packet. Beyond RFC conformance,
			// this is what validates the client's address and releases
			// any amplification-deferred server data (RFC 9000 §8.1).
			ack, err := sealLongPacket(wire.PacketTypeHandshake, c.version, c.serverCID, c.scid,
				nil, c.hsSealer, c.pnHandshake, []wire.Frame{ackFor(pn)}, 0)
			if err != nil {
				return nil, err
			}
			c.pnHandshake++
			c.DatagramsSent++
			out = [][]byte{ack}
		}
		return out, nil
	}
	return nil, nil
}

func (c *Client) processServerHello(m tlsmini.Message) error {
	sh, err := tlsmini.ParseServerHello(m.Body)
	if err != nil {
		return err
	}
	if sh.CipherSuite != tlsmini.SuiteAES128GCMSHA256 {
		return fmt.Errorf("handshake: server chose suite %#04x", sh.CipherSuite)
	}
	if len(sh.KeyShareX25519) == 0 {
		return errors.New("handshake: server hello missing key share")
	}
	pub, err := ecdh.X25519().NewPublicKey(sh.KeyShareX25519)
	if err != nil {
		return err
	}
	shared, err := c.ecdhPriv.ECDH(pub)
	if err != nil {
		return err
	}
	c.ks.WriteTranscript(m.Raw)
	c.clientHS, c.serverHS = c.ks.SetHandshakeSecrets(shared)
	if c.hsSealer, err = quiccrypto.NewSealer(c.clientHS); err != nil {
		return err
	}
	if c.hsOpener, err = quiccrypto.NewOpener(c.serverHS); err != nil {
		return err
	}
	c.state = ClientStateHandshaking
	return nil
}

// processHandshakeMessages consumes EncryptedExtensions, Certificate,
// CertificateVerify and Finished, then emits the client Finished
// flight. Messages may arrive split across datagrams, so progress is
// kept on the Client.
func (c *Client) processHandshakeMessages() ([][]byte, error) {
	for _, m := range c.hsStream.messages() {
		switch m.Type {
		case tlsmini.TypeEncryptedExtensions:
			if _, err := tlsmini.ParseEncryptedExtensions(m.Body); err != nil {
				return nil, err
			}
			c.ks.WriteTranscript(m.Raw)

		case tlsmini.TypeCertificate:
			cert, err := tlsmini.ParseCertificate(m.Body)
			if err != nil {
				return nil, err
			}
			c.certChain = cert
			c.ks.WriteTranscript(m.Raw)

		case tlsmini.TypeCertificateVerify:
			cv, err := tlsmini.ParseCertificateVerify(m.Body)
			if err != nil {
				return nil, err
			}
			if c.certChain == nil || len(c.certChain.Chain) == 0 {
				return nil, fmt.Errorf("%w: CertificateVerify before Certificate", ErrUnexpectedMessage)
			}
			if err := c.verifyCertSignature(c.certChain, cv); err != nil {
				return nil, err
			}
			c.ks.WriteTranscript(m.Raw)

		case tlsmini.TypeFinished:
			if !c.ks.VerifyFinished(c.serverHS, m.Body) {
				return nil, fmt.Errorf("%w: bad server Finished", ErrAuthFailure)
			}
			c.ks.WriteTranscript(m.Raw)
			return c.sendFinished()

		default:
			return nil, fmt.Errorf("%w: %v at handshake level", ErrUnexpectedMessage, m.Type)
		}
	}
	return nil, nil
}

func (c *Client) verifyCertSignature(cert *tlsmini.Certificate, cv *tlsmini.CertificateVerify) error {
	// Transcript at verification time covers CH..Certificate, which is
	// the current state (CV not yet absorbed).
	leaf, err := parseLeafECDSA(cert.Chain[0])
	if err != nil {
		return err
	}
	if cv.Scheme != tlsmini.SchemeECDSAP256 {
		return fmt.Errorf("handshake: unsupported signature scheme %#04x", cv.Scheme)
	}
	if !tlsmini.VerifyTranscript(leaf, c.ks.TranscriptHash(), cv.Signature) {
		return fmt.Errorf("%w: certificate signature invalid", ErrAuthFailure)
	}
	return nil
}

// sendFinished emits the client's Finished in a Handshake packet and
// completes the handshake. Application secrets are derived over the
// transcript through the server Finished (RFC 8446 §7.1), which the
// caller has already absorbed.
func (c *Client) sendFinished() ([][]byte, error) {
	c.clientApp, c.serverApp = c.ks.SetMasterSecrets()
	fin := (&tlsmini.Finished{VerifyData: c.ks.FinishedMAC(c.clientHS)}).Marshal()
	frames := []wire.Frame{
		ackFor(0),
		&wire.CryptoFrame{Offset: 0, Data: fin},
	}
	pkt, err := sealLongPacket(wire.PacketTypeHandshake, c.version, c.serverCID, c.scid,
		nil, c.hsSealer, c.pnHandshake, frames, 0)
	if err != nil {
		return nil, err
	}
	c.pnHandshake++
	c.state = ClientStateDone
	c.DatagramsSent++
	return [][]byte{pkt}, nil
}
