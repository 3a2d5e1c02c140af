package ibr

import (
	"bytes"
	"runtime"
	"testing"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// TestScanPacketSharedReadOnly pins the payload-interning contract:
// ScanPacket returns the shared per-version template that every bot
// packet aliases, so nothing downstream may mutate it. Dissecting the
// same payload twice must be byte-stable (the dissector decrypts into
// its own scratch, never in place) and yield identical results —
// which is what makes interning provably safe.
func TestScanPacketSharedReadOnly(t *testing.T) {
	tpl := testTemplates(t)
	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27} {
		payload := tpl.ScanPacket(v)
		if &payload[0] != &tpl.ScanPacket(v)[0] {
			t.Fatalf("%v: ScanPacket must return the shared template, not a copy", v)
		}
		before := append([]byte(nil), payload...)

		d := dissect.NewDissector()
		r1, err := d.Dissect(payload)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		first := make([]dissect.PacketInfo, len(r1.Packets))
		copy(first, r1.Packets)
		// The result aliases the payload; snapshot the CID bytes too.
		scid1 := append([]byte(nil), r1.First().SCID...)

		if !bytes.Equal(payload, before) {
			t.Fatalf("%v: first dissection mutated the shared template", v)
		}
		r2, err := d.Dissect(payload)
		if err != nil {
			t.Fatalf("%v: second dissection failed: %v", v, err)
		}
		if !bytes.Equal(payload, before) {
			t.Fatalf("%v: second dissection mutated the shared template", v)
		}
		if len(r2.Packets) != len(first) {
			t.Fatalf("%v: packet counts differ across dissections", v)
		}
		p1, p2 := &first[0], &r2.Packets[0]
		if p1.Type != p2.Type || p1.Version != p2.Version ||
			p1.Decrypted != p2.Decrypted || p1.HasClientHello != p2.HasClientHello ||
			p1.SNI != p2.SNI || !bytes.Equal(scid1, p2.SCID) {
			t.Fatalf("%v: dissection not byte-stable:\n%+v\n%+v", v, p1, p2)
		}
	}
}

// TestResponsePacketCachedAllocs locks the interning win: after the
// first build of a (version, kind, SCID) datagram, PayloadCache
// returns the shared slice with zero allocations — the uncached
// Templates.ResponsePacket cloned ~1 KB per backscatter packet.
func TestResponsePacketCachedAllocs(t *testing.T) {
	tpl := testTemplates(t)
	c := NewPayloadCache(tpl)
	scid := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	kinds := []responseKind{kindD1, kindD2, kindPing, kindOneRTT}
	for _, k := range kinds {
		if len(c.ResponsePacket(wire.VersionDraft29, k, scid)) == 0 {
			t.Fatalf("kind %d: empty payload", k)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, k := range kinds {
			c.ResponsePacket(wire.VersionDraft29, k, scid)
		}
	}); avg > 0 {
		t.Errorf("cached ResponsePacket allocates %.1f/op, want 0", avg)
	}
	// Interned payloads are shared, not per-call clones.
	a := c.ResponsePacket(wire.VersionDraft29, kindD1, scid)
	b := c.ResponsePacket(wire.VersionDraft29, kindD1, scid)
	if &a[0] != &b[0] {
		t.Error("cache returned distinct buffers for one key")
	}
	// Distinct SCIDs still get distinct patched datagrams.
	other := c.ResponsePacket(wire.VersionDraft29, kindD1, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	if &a[0] == &other[0] {
		t.Error("cache aliased different SCIDs")
	}
}

// TestPlanAllocsPerFlood prices planning: scheduling the paper month
// at scale 0.05 onto a ready generator (Internet, census and templates
// built) allocates at most 0.15 objects per planned flood (0.066
// measured) — the floods come from the generator's slab, planChunk to
// an allocation, holding their RNGs by value, and everything else the
// schedule keeps (bots, responders, ground truth) is spread over the
// floods. Bots and responders, scheduled alone, allocate at most 1.2
// objects each (1.10 and 1.02): their visits, and their share of a
// slab chunk.
func TestPlanAllocsPerFlood(t *testing.T) {
	newGen := func() *Generator {
		g, err := NewEmpty(Config{Seed: 7, Scale: 0.05, Identity: ibrIdentity})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mallocs := func(plan func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	g := newGen()
	all := mallocs(g.schedulePaper)
	floods := g.Truth.QUICAttacks + g.Truth.CommonAttacks
	perFlood := float64(all) / float64(floods)
	if perFlood > 0.15 {
		t.Errorf("planning allocates %.3f objects per planned flood (%d floods), want ≤ 0.15", perFlood, floods)
	}
	t.Logf("%d floods planned, %.3f allocations each", floods, perFlood)

	g = newGen()
	for _, c := range []struct {
		what string
		plan func(*netmodel.RNG)
		n    func() int
	}{
		{"bot", g.scheduleBots, func() int { return len(g.Truth.BotAddrs) }},
		{"responder", g.scheduleMisconfig, func() int { return g.Truth.MisconfSources }},
	} {
		rng := g.root.Fork(c.what)
		per := float64(mallocs(func() { c.plan(rng) })) / float64(c.n())
		if per > 1.2 {
			t.Errorf("planning allocates %.2f objects per planned %s (%d), want ≤ 1.2", per, c.what, c.n())
		}
		t.Logf("%d %ss planned, %.3f allocations each", c.n(), c.what, per)
	}
}

// TestSlabRecyclingDeterminism drives the merged streams with and
// without slab recycling, over one and three feeds, and requires equal
// packet sequences, payload bytes included: recycling only changes
// storage reuse, never content or order. The month is the paper's at a
// small scale plus amplified QUIC and TCP/ICMP scenario floods, whose
// chunks hold whole arrivals.
func TestSlabRecyclingDeterminism(t *testing.T) {
	digest := func(feeds int, recycle bool) (int, string) {
		gen, err := New(Config{Seed: 31, Scale: 0.002, SkipResearch: true, Identity: ibrIdentity})
		if err != nil {
			t.Fatal(err)
		}
		// Pool sizes are at scale 1: 8 census victims for the QUIC
		// floods, 2 Internet hosts for the TCP/ICMP ones.
		addPhase(t, gen, "amp-quic", Phase{Kind: KindFlood, Vector: "quic", Attacks: 3000,
			Victims: VictimPool{Size: 4000}, Amplification: 2.5, Rate: RateCurve{Shape: "square"}})
		addPhase(t, gen, "amp-retry", Phase{Kind: KindFlood, Vector: "quic", Attacks: 2000,
			Victims: VictimPool{Size: 4000}, Amplification: 3, RetryMitigation: true, Rate: RateCurve{Shape: "ramp"}})
		addPhase(t, gen, "amp-common", Phase{Kind: KindFlood, Vector: "common-mix", Attacks: 5000,
			Victims: VictimPool{Org: "internet", Size: 1000}, Amplification: 1.5})
		var n int
		ph := newPacketHash()
		for _, m := range gen.Feeds(feeds, recycle) {
			m.Run(func(p *telescope.Packet) {
				n++
				ph.add(p)
			})
		}
		return n, ph.sum()
	}
	for _, feeds := range []int{1, 3} {
		n1, s1 := digest(feeds, false)
		n2, s2 := digest(feeds, true)
		if n1 == 0 {
			t.Fatal("no packets")
		}
		if n1 != n2 || s1 != s2 {
			t.Fatalf("%d feeds: recycling changed the stream: n %d vs %d, digest %s vs %s", feeds, n1, n2, s1, s2)
		}
	}
}
