// Package dissect is the telescope's QUIC dissector — the stand-in for
// the paper's Wireshark payload dissection (§4.1). It validates that a
// UDP/443 payload is structurally QUIC, walks coalesced packets,
// removes Initial packet protection where a passive observer can, and
// extracts the fields the analyses join on: packet types, version,
// SCID/DCID, and whether an Initial carries a client-visible
// ClientHello. A passive observer can open client Initials only (their
// keys derive from the DCID on the wire), so DissectPacket trial-opens
// Initials in request-direction datagrams and leaves server replies
// (source port UDP/443) opaque without trying; Dissect, for payloads of
// unknown direction, tries every Initial.
//
// The design follows gopacket's DecodingLayer idiom: a reusable
// Dissector decodes into preallocated result storage and recycles every
// scratch buffer (header, plaintext, crypto stream, Initial openers),
// so the 92 M packet stream dissects with zero steady-state allocation
// on the dominant paths (see TestDissectAllocs).
package dissect

import (
	"errors"

	"quicsand/internal/quiccrypto"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// PacketInfo describes one QUIC packet inside a datagram.
type PacketInfo struct {
	Type    wire.PacketType
	Version wire.Version
	// SCID and DCID alias the dissected payload (they are sub-slices of
	// the datagram); copy them to outlive the payload or the next
	// Dissect call.
	SCID wire.ConnectionID
	DCID wire.ConnectionID

	// Decrypted reports whether Initial protection was removable with
	// the on-wire DCID (true for genuine client Initials). It is always
	// false for response-direction Initials, which are never opened.
	Decrypted bool
	// HasClientHello reports a parseable TLS ClientHello inside a
	// decrypted Initial — §6's backscatter-vs-scan discriminator.
	HasClientHello bool
	// SNI is the server name from the ClientHello, when present.
	SNI string
	// FrameTypes lists frame types of a decrypted payload.
	FrameTypes []wire.FrameType
}

// Result is the dissection of one datagram.
type Result struct {
	// Packets holds one entry per (possibly coalesced) QUIC packet.
	Packets []PacketInfo
	// Valid reports at least one structurally valid QUIC packet,
	// i.e. the datagram survives the paper's false-positive filter.
	Valid bool
}

// next extends Packets by one entry, recycling the retired entry's
// FrameTypes backing array so steady-state dissection never allocates.
func (r *Result) next() *PacketInfo {
	if len(r.Packets) < cap(r.Packets) {
		r.Packets = r.Packets[:len(r.Packets)+1]
	} else {
		r.Packets = append(r.Packets, PacketInfo{})
	}
	pi := &r.Packets[len(r.Packets)-1]
	ft := pi.FrameTypes[:0]
	*pi = PacketInfo{FrameTypes: ft}
	return pi
}

// First returns the first packet info, or nil.
func (r *Result) First() *PacketInfo {
	if len(r.Packets) == 0 {
		return nil
	}
	return &r.Packets[0]
}

// openerKey identifies the Initial keys derivable from one wire DCID.
// The telescope's traffic is heavily interned — every scan packet of a
// version shares one template DCID and all backscatter carries the
// empty DCID — so a tiny cache turns per-packet HKDF+AES key schedules
// into lookups.
type openerKey struct {
	v    wire.Version
	n    uint8
	dcid [wire.MaxConnIDLen]byte
}

// maxOpeners bounds the opener cache; CID-diverse traffic (a real
// Internet mix) resets it wholesale rather than thrashing per packet.
const maxOpeners = 64

// Dissector decodes datagrams. It is not safe for concurrent use; use
// one per goroutine (they are cheap).
type Dissector struct {
	// TryDecrypt controls whether Initial packets are trial-decrypted.
	// The ablation experiment compares port-based classification
	// (TryDecrypt=false) against full validation.
	TryDecrypt bool

	// Metrics accumulates this dissector's counters; shard-local, merged
	// by the caller at reduce time.
	Metrics telemetry.Dissect

	result Result
	// Reused scratch: long-header parse target, frame-visitor record,
	// decrypted plaintext, CRYPTO reassembler and the ClientHello parse
	// target (its strings re-allocate only when a value actually
	// changes — interned scan templates keep this path
	// allocation-free, see ParseClientHelloInto).
	hdr     wire.Header
	frame   wire.FrameInfo
	plain   []byte
	crypto  wire.CryptoStream
	msgs    []tlsmini.Message
	hello   tlsmini.ClientHello
	openers map[openerKey]*quiccrypto.Opener
}

// NewDissector returns a dissector with full validation enabled.
func NewDissector() *Dissector { return &Dissector{TryDecrypt: true} }

// ErrNotQUIC reports payloads rejected by deep validation.
var ErrNotQUIC = errors.New("dissect: not a QUIC datagram")

// Dissect validates and decodes one UDP payload whose direction is
// unknown, so every Initial is trial-opened. The returned Result is
// reused across calls and its connection IDs alias payload — copy what
// must outlive the next call. Dissect never writes to payload, so
// callers may pass shared read-only datagrams (interned templates).
func (d *Dissector) Dissect(payload []byte) (*Result, error) {
	return d.dissect(payload, d.TryDecrypt)
}

// DissectPacket dissects p's payload in the direction the paper's port
// classification gives it. A response (source port UDP/443) is parsed
// and validated exactly like a request, but its Initials are never
// trial-opened: a server seals them with the server Initial secret, so
// the client secret the trial open derives from the wire DCID can never
// open them (DESIGN.md §4). Every other direction is opened as Dissect
// opens it. The Result follows Dissect's reuse and aliasing rules.
func (d *Dissector) DissectPacket(p *telescope.Packet) (*Result, error) {
	return d.dissect(p.Payload, d.TryDecrypt && !p.IsResponse())
}

// dissect is the one datagram walk behind both entry points; open
// gates the Initial trial decryption.
func (d *Dissector) dissect(payload []byte, open bool) (*Result, error) {
	r := &d.result
	r.Packets = r.Packets[:0]
	r.Valid = false
	d.Metrics.Datagrams++

	if len(payload) == 0 {
		d.Metrics.ParseFailures++
		return r, ErrNotQUIC
	}
	rest := payload
	for len(rest) > 0 {
		if !wire.IsLongHeader(rest) {
			// Short header: plausibly 1-RTT QUIC if the fixed bit is
			// set and enough bytes follow for CID+pn+sample.
			if wire.HasFixedBit(rest) && len(rest) >= 21 {
				pi := r.next()
				pi.Type = wire.PacketTypeOneRTT
				r.Valid = true
			}
			break // cannot determine CID length; stop walking
		}
		h := &d.hdr
		if err := wire.ParseLongHeaderInto(h, rest); err != nil {
			break
		}
		info := r.next()
		info.Type = h.Type
		info.Version = h.Version
		info.SCID = h.SrcConnID
		info.DCID = h.DstConnID
		// Reject long-header packets with unknown versions unless they
		// are version negotiation: port-based classification would
		// count them, deep validation does not (except reserved
		// greasing versions, which are part of VN packets only).
		structurallyValid := h.Type == wire.PacketTypeVersionNegotiation || h.Version.Known() || h.Version.IsReserved()
		if structurallyValid {
			r.Valid = true
		}

		if open && h.Type == wire.PacketTypeInitial && h.Version.Known() {
			d.tryDecryptInitial(h, rest[:h.PacketLen()], info)
		}
		rest = rest[h.PacketLen():]
	}
	if !r.Valid {
		d.Metrics.ParseFailures++
		return r, ErrNotQUIC
	}
	d.Metrics.Packets += uint64(len(r.Packets))
	return r, nil
}

// opener returns the cached Initial opener for (version, wire DCID),
// deriving and caching it on first sight.
func (d *Dissector) opener(v wire.Version, dcid wire.ConnectionID) (*quiccrypto.Opener, error) {
	var k openerKey
	k.v = v
	k.n = uint8(len(dcid))
	copy(k.dcid[:], dcid)
	if o := d.openers[k]; o != nil {
		d.Metrics.OpenerHits++
		return o, nil
	}
	d.Metrics.OpenerMisses++
	o, err := quiccrypto.NewInitialOpener(v, dcid, quiccrypto.PerspectiveServer)
	if err != nil {
		return nil, err
	}
	if d.openers == nil {
		d.openers = make(map[openerKey]*quiccrypto.Opener, 8)
	} else if len(d.openers) >= maxOpeners {
		d.Metrics.OpenerResets++
		clear(d.openers)
	}
	d.openers[k] = o
	return o, nil
}

// tryDecryptInitial attempts to remove protection using the client
// Initial keys derived from the wire DCID — exactly what a passive
// dissector can do. Server Initials (backscatter) always fail here,
// because the server seals with its own secret; DissectPacket never
// tries them.
func (d *Dissector) tryDecryptInitial(h *wire.Header, pkt []byte, info *PacketInfo) {
	opener, err := d.opener(h.Version, h.DstConnID)
	if err != nil {
		return
	}
	// The cached opener must behave exactly like a fresh one: each
	// datagram is an independent observation, so no packet-number
	// recovery state may leak between (possibly unrelated) packets
	// that happen to share a DCID.
	opener.ResetLargestPN()
	// Pre-size the plaintext scratch: GCM grows its destination before
	// authenticating and returns nil on failure, so an undersized buffer
	// would re-allocate on every Initial that fails to open (a server
	// reply dissected without a direction, a damaged client Initial).
	if cap(d.plain) < len(pkt) {
		d.plain = make([]byte, 0, len(pkt)+512)
	}
	payload, _, err := opener.AppendOpen(d.plain[:0], pkt, h.HeaderLen())
	d.plain = payload[:0]
	if err != nil {
		return
	}
	info.Decrypted = true
	d.Metrics.Decrypted++
	d.crypto.Reset()
	err = wire.VisitFrames(payload, &d.frame, func(fi *wire.FrameInfo) error {
		info.FrameTypes = append(info.FrameTypes, fi.Type)
		if fi.Type == wire.FrameTypeCrypto {
			return d.crypto.Add(fi.CryptoOffset, fi.CryptoData)
		}
		return nil
	})
	if err != nil {
		info.FrameTypes = info.FrameTypes[:0]
		d.Metrics.FrameErrors++
		return
	}
	crypto := d.crypto.Contiguous()
	if len(crypto) == 0 || len(crypto) != d.crypto.Buffered() {
		return // no CRYPTO frame, or frames that leave a gap
	}
	msgs, err := tlsmini.AppendMessages(d.msgs[:0], crypto)
	d.msgs = msgs[:0]
	if err != nil || len(msgs) == 0 {
		return
	}
	if msgs[0].Type == tlsmini.TypeClientHello {
		if err := tlsmini.ParseClientHelloInto(&d.hello, msgs[0].Body); err == nil {
			info.HasClientHello = true
			d.Metrics.ClientHellos++
			info.SNI = d.hello.ServerName
		}
	}
}
