package ibr

import (
	"bytes"
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

// TestSlabRecyclingFloodScratchAllocs pins where a flood's arrival
// times live: a second equal-sized flood built through the same warm
// pool allocates at least one object fewer than build(nil), which has
// no pool to keep the scratch in. The pool keeps it whether or not it
// recycles packet slabs.
func TestSlabRecyclingFloodScratchAllocs(t *testing.T) {
	mk := func() *floodSpec {
		return &floodSpec{
			vector: VectorTCP, victim: netmodel.MustAddr("38.1.2.3"),
			startSec: 0, durSec: 3600, peakPkts: 400, basePkts: 2000,
			nAddrs: 4, nPorts: 8, rng: netmodel.NewRNG(6),
		}
	}
	cold := testing.AllocsPerRun(20, func() { mk().build(nil) })
	for _, recycle := range []bool{false, true} {
		pool := &slabPool{recycle: recycle}
		pool.put(mk().build(pool))
		warm := testing.AllocsPerRun(20, func() { pool.put(mk().build(pool)) })
		if warm > cold-1 {
			t.Errorf("recycle %v: warm pool build allocates %.0f objects, build(nil) %.0f; the arrival scratch is not reused",
				recycle, warm, cold)
		}
	}
}

// TestSlabRecyclingDeterminism drives one shard's merged stream with
// and without slab recycling; the packet sequences must be identical
// (recycling only changes storage reuse, never content or order).
func TestSlabRecyclingDeterminism(t *testing.T) {
	digest := func(recycle bool) (int, uint64) {
		// The shared identity pins template payload bytes: certificate
		// signatures come from real entropy, so separate runs only
		// compare byte-identically when they sign with one identity.
		gen, err := New(Config{Seed: 31, Scale: 0.002, SkipResearch: true, Identity: ibrIdentity})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		var sum uint64
		for _, m := range gen.Feeds(3, recycle) {
			m.Run(func(p *telescope.Packet) {
				n++
				sum = sum*1099511628211 ^ uint64(p.TS) ^ uint64(p.Src)<<20 ^ uint64(p.Size)
			})
		}
		return n, sum
	}
	n1, s1 := digest(false)
	n2, s2 := digest(true)
	if n1 == 0 {
		t.Fatal("no packets")
	}
	if n1 != n2 || s1 != s2 {
		t.Fatalf("recycling changed the stream: n %d vs %d, digest %x vs %x", n1, n2, s1, s2)
	}
}
