package ibr

import (
	"fmt"
	"sync"

	"quicsand/internal/handshake"
	"quicsand/internal/netmodel"
	"quicsand/internal/quiccrypto"
	"quicsand/internal/telemetry"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// Templates holds real wire bytes for every packet shape the
// generators emit. They are produced once per version by running an
// actual client/server handshake, then cloned-and-patched per packet
// (SCID, spoofed destination). Replaying recorded packets instead of
// hand-crafting them mirrors both real attack tooling and the paper's
// own benchmark methodology ("replaying avoids bias from hand-crafting
// QUIC packets").
//
// The handshakes run on first use: the first packet a generator emits
// builds all four versions, on whichever goroutine asks first. A run
// that schedules a month but reads its packets from elsewhere (replay,
// a Streamer, a checkpoint's Analysis, Expect, ExpectAlerts) never pays
// for them. The RNG is forked when the generator is made, so when the
// build happens moves no draw.
type Templates struct {
	once       sync.Once
	rng        *netmodel.RNG     // the "templates" fork; dropped once built
	identity   *tlsmini.Identity // signs the handshakes; dropped once built
	perVersion map[wire.Version]*versionTemplates
}

type versionTemplates struct {
	// clientInitial is a complete 1200-byte scan request datagram
	// (decryptable by a passive observer, ClientHello inside).
	clientInitial []byte
	// d1 is the victim's first response datagram: Initial (ServerHello)
	// coalesced with a Handshake packet. Client used a zero-length
	// SCID, so the response DCID length is zero.
	d1 []byte
	// d2 is the Handshake-only continuation datagram.
	d2 []byte
	// ping is a Handshake keep-alive datagram.
	ping []byte
	// oneRTT is a short-header packet (stateless-reset-shaped noise).
	oneRTT []byte
	// origDCID is the DCID of the template client Initial; the Retry
	// integrity tag binds it (RFC 9001 §5.8), so Retry backscatter is
	// rebuilt per SCID instead of patched (patching would break the tag).
	origDCID []byte
	// retryToken is the deterministic token Retry backscatter carries.
	retryToken []byte
	// scidOffsets locates the 8-byte server SCID inside each response
	// template, per coalesced packet, for per-connection patching.
	d1SCIDOffs   []int
	d2SCIDOffs   []int
	pingSCIDOffs []int
}

// scidLen is the server connection-ID length used by all templates.
const scidLen = 8

// newTemplates returns templates that build from rng and identity on
// first use.
func newTemplates(rng *netmodel.RNG, identity *tlsmini.Identity) *Templates {
	return &Templates{rng: rng, identity: identity}
}

// build runs one handshake per version and captures the flight bytes.
// rng drives all entropy, keeping templates deterministic per seed: the
// per-version RNGs are forked up front in a fixed order, so the four
// handshakes can run concurrently without perturbing any draw.
func (t *Templates) build() error {
	versions := []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27}
	rngs := make([]*netmodel.RNG, len(versions))
	for i, v := range versions {
		rngs[i] = t.rng.Fork("templates/" + v.String())
	}
	vts := make([]*versionTemplates, len(versions))
	errs := make([]error, len(versions))
	var wg sync.WaitGroup
	wg.Add(len(versions))
	for i := range versions {
		go func(i int) {
			defer wg.Done()
			vts[i], errs[i] = buildVersionTemplates(rngs[i], t.identity, versions[i])
		}(i)
	}
	wg.Wait()

	perVersion := make(map[wire.Version]*versionTemplates, len(versions))
	for i, v := range versions {
		if errs[i] != nil {
			return fmt.Errorf("ibr: templates for %v: %w", v, errs[i])
		}
		perVersion[v] = vts[i]
	}
	t.perVersion, t.rng, t.identity = perVersion, nil, nil
	return nil
}

func buildVersionTemplates(rng *netmodel.RNG, identity *tlsmini.Identity, v wire.Version) (*versionTemplates, error) {
	client, err := handshake.NewClient(handshake.ClientConfig{
		Version: v, ServerName: "quic.example.net", Rand: rng, EmptySCID: true,
	})
	if err != nil {
		return nil, err
	}
	first, err := client.Start()
	if err != nil {
		return nil, err
	}
	h, err := wire.ParseLongHeader(first)
	if err != nil {
		return nil, err
	}
	server, err := handshake.NewServerConn(handshake.ServerConfig{
		Identity: identity, Rand: rng,
	}, v, h.DstConnID, h.SrcConnID)
	if err != nil {
		return nil, err
	}
	flight, err := server.HandleDatagram(append([]byte(nil), first...))
	if err != nil {
		return nil, err
	}
	if len(flight) < 2 {
		return nil, fmt.Errorf("ibr: server flight has %d datagrams", len(flight))
	}
	pings, err := server.KeepAlivePings(1)
	if err != nil {
		return nil, err
	}

	vt := &versionTemplates{
		clientInitial: first,
		d1:            flight[0],
		d2:            flight[1],
		ping:          pings[0],
	}
	if vt.d1SCIDOffs, err = scidOffsets(vt.d1); err != nil {
		return nil, err
	}
	if vt.d2SCIDOffs, err = scidOffsets(vt.d2); err != nil {
		return nil, err
	}
	if vt.pingSCIDOffs, err = scidOffsets(vt.ping); err != nil {
		return nil, err
	}

	// Short-header noise packet: fixed bit + random body.
	one := make([]byte, 40)
	rng.Bytes(one)
	one[0] = 0x40 | (one[0] & 0x3f &^ 0x80)
	vt.oneRTT = one

	// Retry material: the client's original DCID (the integrity-tag
	// binding) and a deterministic 24-byte token. Drawn last so the
	// template byte streams of earlier artifacts stay exactly as they
	// were before Retry support existed.
	vt.origDCID = append([]byte(nil), h.DstConnID...)
	vt.retryToken = make([]byte, 24)
	rng.Bytes(vt.retryToken)
	return vt, nil
}

// scidOffsets walks coalesced long-header packets and returns the byte
// offset of each SCID field (which must be scidLen bytes).
func scidOffsets(datagram []byte) ([]int, error) {
	var offs []int
	base := 0
	rest := datagram
	for len(rest) > 0 && wire.IsLongHeader(rest) {
		h, err := wire.ParseLongHeader(rest)
		if err != nil {
			return nil, err
		}
		if len(h.SrcConnID) != scidLen {
			return nil, fmt.Errorf("ibr: template SCID length %d", len(h.SrcConnID))
		}
		// SCID begins after first byte, version, dcid-len byte, dcid
		// bytes and the scid-len byte.
		off := base + 1 + 4 + 1 + len(h.DstConnID) + 1
		offs = append(offs, off)
		base += h.PacketLen()
		rest = rest[h.PacketLen():]
	}
	if len(offs) == 0 {
		return nil, fmt.Errorf("ibr: no long-header packets in template")
	}
	return offs, nil
}

// responseKind selects a backscatter datagram shape. The mixture is
// tuned so the captured message mix lands near the paper's §6
// observation (~31 % Initial, ~57 % Handshake, rest other).
type responseKind int

const (
	kindD1 responseKind = iota
	kindD2
	kindPing
	kindOneRTT
	kindRetry
)

// pickResponseKind draws from the tuned mixture.
func pickResponseKind(r *netmodel.RNG) responseKind {
	switch x := r.Float64(); {
	case x < 0.45:
		return kindD1
	case x < 0.70:
		return kindD2
	case x < 0.82:
		return kindPing
	default:
		return kindOneRTT
	}
}

// pickRetryKind draws the backscatter mixture of a Retry-mitigated
// victim: almost exclusively Retry packets (the stateless
// crypto-challenge answer, QFAM-style), with a sliver of completed
// handshakes from clients that did return the token, and stray 1-RTT
// noise.
func pickRetryKind(r *netmodel.RNG) responseKind {
	switch x := r.Float64(); {
	case x < 0.86:
		return kindRetry
	case x < 0.94:
		return kindD1
	case x < 0.97:
		return kindD2
	default:
		return kindOneRTT
	}
}

// ResponsePacket builds one backscatter packet from the victim to a
// spoofed client, with the given server SCID patched in. The returned
// slice is freshly allocated per call; generators on the hot path go
// through a PayloadCache instead, which interns the patched bytes.
func (t *Templates) ResponsePacket(v wire.Version, kind responseKind, scid []byte) []byte {
	vt := t.versionOf(v)
	var tpl []byte
	var offs []int
	switch kind {
	case kindD1:
		tpl, offs = vt.d1, vt.d1SCIDOffs
	case kindD2:
		tpl, offs = vt.d2, vt.d2SCIDOffs
	case kindPing:
		tpl, offs = vt.ping, vt.pingSCIDOffs
	case kindRetry:
		return t.RetryPacket(v, scid)
	default:
		return append([]byte(nil), vt.oneRTT...)
	}
	out := append([]byte(nil), tpl...)
	for _, off := range offs {
		copy(out[off:off+scidLen], scid)
	}
	return out
}

// RetryPacket builds a complete Retry datagram from the victim with
// the given server SCID: a zero-length DCID (the template client used
// an empty SCID, exactly what backscatter carries), the deterministic
// template token, and a valid integrity tag bound to the template
// client's original DCID. The tag depends on the SCID bytes, so Retry
// backscatter is rebuilt per SCID rather than offset-patched; hot
// paths intern the result through a PayloadCache like every other
// response kind.
func (t *Templates) RetryPacket(v wire.Version, scid []byte) []byte {
	if !v.Known() {
		v = wire.Version1
	}
	vt := t.versionOf(v)
	pkt, err := quiccrypto.BuildRetry(v, nil, scid, vt.origDCID, vt.retryToken)
	if err != nil {
		// Unreachable: every known version has Retry keys. Degrade to
		// short-header noise rather than corrupting the stream.
		return append([]byte(nil), vt.oneRTT...)
	}
	return pkt
}

// versionOf returns v's templates, building every version on the first
// call. NewEmpty has checked the identity, so a build that fails anyway
// is a broken invariant and panics with the version's error.
func (t *Templates) versionOf(v wire.Version) *versionTemplates {
	t.once.Do(func() {
		if err := t.build(); err != nil {
			panic(err)
		}
	})
	vt := t.perVersion[v]
	if vt == nil {
		vt = t.perVersion[wire.Version1]
	}
	return vt
}

// ScanPacket returns the scan request datagram for a version. The
// returned slice is the shared template itself — every bot packet of
// that version aliases it as Payload — and MUST be treated as
// read-only by all consumers. The dissector honors this: it never
// writes to payloads (see TestScanPacketSharedReadOnly).
func (t *Templates) ScanPacket(v wire.Version) []byte {
	return t.versionOf(v).clientInitial
}

// payloadKey identifies one interned response datagram.
type payloadKey struct {
	v    wire.Version
	kind responseKind
	scid [scidLen]byte
}

// PayloadCache interns patched response datagrams per (version, kind,
// SCID), returning shared read-only slices exactly like ScanPacket
// does. Flood specs pool SCIDs per spoofed tuple, so one attack's
// whole backscatter collapses onto a handful of distinct datagrams —
// the per-packet clone in Templates.ResponsePacket was the pipeline's
// single largest allocation source. A cache is single-goroutine
// (generators build events on their shard's worker); use one per spec
// or per shard.
type PayloadCache struct {
	t *Templates
	m map[payloadKey][]byte
	// Stats, when set, counts hits/misses into the shard's Generate
	// bank (shared-template 1-RTT resolutions count as hits).
	Stats *telemetry.Generate
}

// NewPayloadCache creates an empty cache over the templates.
func NewPayloadCache(t *Templates) *PayloadCache {
	return &PayloadCache{t: t}
}

// ResponsePacket returns the interned patched datagram for the key,
// building it once on first use. 1-RTT noise packets carry no SCID and
// resolve to the shared template directly. Callers must treat the
// result as read-only.
func (c *PayloadCache) ResponsePacket(v wire.Version, kind responseKind, scid []byte) []byte {
	if kind == kindOneRTT {
		if c.Stats != nil {
			c.Stats.PayloadHits++
		}
		return c.t.versionOf(v).oneRTT
	}
	var k payloadKey
	k.v = v
	k.kind = kind
	copy(k.scid[:], scid)
	if p, ok := c.m[k]; ok {
		if c.Stats != nil {
			c.Stats.PayloadHits++
		}
		return p
	}
	if c.Stats != nil {
		c.Stats.PayloadMisses++
	}
	if c.m == nil {
		c.m = make(map[payloadKey][]byte, 8)
	}
	p := c.t.ResponsePacket(v, kind, scid)
	c.m[k] = p
	return p
}

// clampSize converts a datagram length to the Packet.Size field.
func clampSize(n int) uint16 {
	if n > 0xffff {
		return 0xffff
	}
	return uint16(n)
}
