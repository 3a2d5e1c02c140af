package ibr

import (
	"sort"
	"testing"
	"time"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

var ibrIdentity *tlsmini.Identity

func init() {
	id, err := tlsmini.GenerateSelfSigned("ibr.test", 600)
	if err != nil {
		panic(err)
	}
	ibrIdentity = id
}

func testTemplates(t *testing.T) *Templates {
	t.Helper()
	tpl, err := BuildTemplates(netmodel.NewRNG(1), ibrIdentity)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestMergerOrdersAcrossSources(t *testing.T) {
	mk := func(times ...int64) Source {
		var pkts []telescope.Packet
		for _, at := range times {
			pkts = append(pkts, telescope.Packet{TS: telescope.Timestamp(at)})
		}
		return newTestSource(telescope.Timestamp(times[0]), 0, pkts)
	}
	m := NewMerger(mk(5, 10, 30), mk(1, 20), mk(15))
	var got []int64
	m.Run(func(p *telescope.Packet) { got = append(got, int64(p.TS)) })
	want := []int64{1, 5, 10, 15, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMergerLazyActivation(t *testing.T) {
	var sources []*testSource
	mkLazy := func(start int64) Source {
		s := newTestSource(telescope.Timestamp(start), 0,
			[]telescope.Packet{{TS: telescope.Timestamp(start)}, {TS: telescope.Timestamp(start + 5)}})
		sources = append(sources, s)
		return s
	}
	built := func() (n int) {
		for _, s := range sources {
			if s.built {
				n++
			}
		}
		return n
	}
	m := NewMerger(mkLazy(100), mkLazy(2000), mkLazy(50))
	// Pulling the first packet must not build far-future sources.
	p := m.Next()
	if p.TS != 50 {
		t.Fatalf("first packet at %d", p.TS)
	}
	if built() > 2 {
		t.Fatalf("built %d sources eagerly", built())
	}
	n := 1
	for m.Next() != nil {
		n++
	}
	if n != 6 || built() != 3 {
		t.Fatalf("n=%d built=%d", n, built())
	}
}

func TestMergerAddAndEmptySources(t *testing.T) {
	m := NewMerger(newTestSource(0, 0, nil)) // empty source
	m.Add(newTestSource(7, 0, []telescope.Packet{{TS: 7}}))
	p := m.Next()
	if p == nil || p.TS != 7 {
		t.Fatalf("got %+v", p)
	}
	if m.Next() != nil {
		t.Fatal("expected end of stream")
	}
}

// TestMergerMatchesBruteForce holds the pending-list + live-heap merge
// equal to the definition of the stream: every source materialised,
// all packets stable-sorted by (TS, src, registration index). The
// randomised sets cover StartTime strictly below the first packet,
// timestamps and addresses shared across sources, sources empty on
// activation, and a source added after the first Next. Recycling is on
// and the sink copies each packet during its call, so a slab handed
// out again before its last packet was consumed would show as a
// mismatch.
func TestMergerMatchesBruteForce(t *testing.T) {
	type tagged struct {
		ts      telescope.Timestamp
		src     netmodel.Addr
		id, seq int
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := netmodel.NewRNG(seed)
		var planned [][]telescope.Packet
		mkSource := func(minTS int64) Source {
			id := len(planned)
			src := netmodel.Addr(1 + rng.Intn(4))
			var pkts []telescope.Packet
			if rng.Intn(6) > 0 {
				at := minTS + int64(rng.Intn(150))
				for n := 1 + rng.Intn(40); n > 0; n-- {
					pkts = append(pkts, telescope.Packet{
						TS: telescope.Timestamp(at), Src: src,
						Dst: netmodel.Addr(id), SrcPort: uint16(len(pkts)),
					})
					at += int64(rng.Intn(3)) // repeats within a source too
				}
			}
			planned = append(planned, pkts)
			start := telescope.Timestamp(minTS)
			if len(pkts) > 0 {
				start = pkts[0].TS - telescope.Timestamp(1+rng.Intn(5))
			}
			return newTestSource(start, src, pkts)
		}
		var sources []Source
		for n := 1 + rng.Intn(60); n > 0; n-- {
			sources = append(sources, mkSource(10))
		}
		m := NewMerger(sources...)
		m.EnableRecycling()

		var got []tagged
		sink := func(p *telescope.Packet) {
			got = append(got, tagged{p.TS, p.Src, int(p.Dst), int(p.SrcPort)})
		}
		if first := m.Next(); first != nil {
			sink(first)
			// Later than everything emitted so far, so the definition
			// below needs no notion of "when" the source was added.
			m.Add(mkSource(int64(first.TS) + 1))
		}
		m.Run(sink)

		var want []tagged
		emitted := 0
		for id, pkts := range planned {
			if len(pkts) > 0 {
				emitted++
			}
			for seq, p := range pkts {
				want = append(want, tagged{p.TS, p.Src, id, seq})
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.id < b.id
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d packets, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: packet %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		tel := m.Telemetry()
		if tel.EventsPlanned != uint64(len(planned)) || tel.EventsEmitted != uint64(emitted) || tel.Packets != uint64(len(want)) {
			t.Fatalf("seed %d: telemetry %+v, want planned %d emitted %d packets %d",
				seed, tel, len(planned), emitted, len(want))
		}
		if len(planned) > 20 && tel.SlabReuses == 0 {
			t.Fatalf("seed %d: recycling never engaged (%d gets)", seed, tel.SlabGets)
		}
		if m.Next() != nil {
			t.Fatalf("seed %d: packet after end of stream", seed)
		}
	}
}

func TestTemplatesShapes(t *testing.T) {
	tpl := testTemplates(t)
	d := dissect.NewDissector()

	for _, v := range []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27} {
		scan := tpl.ScanPacket(v)
		if len(scan) < 1200 {
			t.Errorf("%v scan packet %d bytes", v, len(scan))
		}
		r, err := d.Dissect(scan)
		if err != nil || !r.First().HasClientHello {
			t.Errorf("%v scan template invalid: %v", v, err)
		}

		// Response templates must parse as the right packet types and
		// carry zero-length DCIDs (the paper's §5.2 validity check).
		scid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		d1 := tpl.ResponsePacket(v, kindD1, scid)
		r, err = d.Dissect(d1)
		if err != nil {
			t.Fatalf("%v d1: %v", v, err)
		}
		if len(r.Packets) < 2 || r.Packets[0].Type != wire.PacketTypeInitial || r.Packets[1].Type != wire.PacketTypeHandshake {
			t.Fatalf("%v d1 shape: %+v", v, r.Packets)
		}
		for _, pi := range r.Packets {
			if len(pi.DCID) != 0 {
				t.Errorf("%v response DCID length %d, want 0", v, len(pi.DCID))
			}
			if string(pi.SCID) != string(scid) {
				t.Errorf("%v SCID not patched: %x", v, pi.SCID)
			}
			if pi.Decrypted {
				t.Errorf("%v backscatter decryptable by observer", v)
			}
		}

		d2 := tpl.ResponsePacket(v, kindD2, scid)
		r, err = d.Dissect(d2)
		if err != nil || r.First().Type != wire.PacketTypeHandshake {
			t.Errorf("%v d2 shape: %v", v, err)
		}
		ping := tpl.ResponsePacket(v, kindPing, scid)
		r, err = d.Dissect(ping)
		if err != nil || r.First().Type != wire.PacketTypeHandshake {
			t.Errorf("%v ping shape: %v", v, err)
		}
		one := tpl.ResponsePacket(v, kindOneRTT, scid)
		r, err = d.Dissect(one)
		if err != nil || r.First().Type != wire.PacketTypeOneRTT {
			t.Errorf("%v 1-RTT shape: %v", v, err)
		}
	}
}

func TestTemplatePatchingDoesNotAlias(t *testing.T) {
	tpl := testTemplates(t)
	a := tpl.ResponsePacket(wire.Version1, kindD1, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	b := tpl.ResponsePacket(wire.Version1, kindD1, []byte{2, 2, 2, 2, 2, 2, 2, 2})
	d := dissect.NewDissector()
	ra, _ := d.Dissect(a)
	if string(ra.First().SCID) != string([]byte{1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Fatal("template aliasing: first packet mutated by second patch")
	}
	rb, _ := d.Dissect(b)
	if string(rb.First().SCID) != string([]byte{2, 2, 2, 2, 2, 2, 2, 2}) {
		t.Fatal("second patch missing")
	}
}

func TestResearchScanSource(t *testing.T) {
	rng := netmodel.NewRNG(3)
	scan := newResearchScan(rng, netmodel.MustAddr("129.187.5.5"), 1000, time.Hour, 4096)
	pool := testPool(false)
	var n uint64
	var weighted uint64
	var last telescope.Timestamp
	for {
		p, ok := scan.next(pool)
		if !ok {
			break
		}
		if p.TS < last {
			t.Fatal("research scan out of order")
		}
		last = p.TS
		if !netmodel.InTelescope(p.Dst) {
			t.Fatal("scan escaped telescope")
		}
		if p.DstPort != 443 || p.Proto != telescope.ProtoUDP {
			t.Fatal("scan not UDP/443")
		}
		n++
		weighted += p.EffectiveWeight()
	}
	want := netmodel.TelescopePrefix.Size()
	if weighted != want {
		t.Errorf("weighted packets = %d, want %d", weighted, want)
	}
	if n != want/4096 {
		t.Errorf("records = %d, want %d", n, want/4096)
	}
}

func TestFloodSpecBuild(t *testing.T) {
	tpl := testTemplates(t)
	spec := &floodSpec{
		vector: 0, victim: netmodel.MustAddr("142.250.3.3"),
		version: wire.VersionDraft29, startSec: 500, durSec: 300,
		peakPkts: 100, basePkts: 50, nAddrs: 5, nPorts: 20, scidRatio: 0.9,
		rng: *netmodel.NewRNG(5), tpl: tpl,
	}
	pkts := drain(spec, testPool(false))
	// peakPkts is a per-minute rate sustained over a 2-minute burst
	// window, plus base packets and 2 brackets.
	if len(pkts) != 2*100+50+2 {
		t.Fatalf("packets = %d", len(pkts))
	}
	var last telescope.Timestamp
	addrs := map[netmodel.Addr]bool{}
	ports := map[uint16]bool{}
	scids := map[string]bool{}
	d := dissect.NewDissector()
	for i := range pkts {
		p := &pkts[i]
		if p.TS < last {
			t.Fatal("flood packets out of order")
		}
		last = p.TS
		if p.Src != spec.victim || p.SrcPort != 443 {
			t.Fatal("backscatter direction wrong")
		}
		addrs[p.Dst] = true
		ports[p.DstPort] = true
		r, err := d.Dissect(p.Payload)
		if err != nil {
			t.Fatalf("invalid backscatter: %v", err)
		}
		for _, pi := range r.Packets {
			if len(pi.SCID) > 0 {
				scids[string(pi.SCID)] = true
			}
		}
	}
	if len(addrs) > 5 || len(addrs) < 2 {
		t.Errorf("spoofed addrs = %d", len(addrs))
	}
	if len(ports) > 20 {
		t.Errorf("ports = %d", len(ports))
	}
	if len(scids) < 10 {
		t.Errorf("unique SCIDs = %d, want many at ratio 0.9", len(scids))
	}
	// Attack shape satisfies Moore thresholds by construction.
	dur := float64(pkts[len(pkts)-1].TS-pkts[0].TS) / 1000
	if dur < 60 {
		t.Errorf("duration = %f", dur)
	}
}

func TestFloodSpecSCIDPooling(t *testing.T) {
	tpl := testTemplates(t)
	build := func(ratio float64) int {
		spec := &floodSpec{
			vector: 0, victim: netmodel.MustAddr("157.240.9.9"),
			version: wire.VersionMVFST27, startSec: 0, durSec: 300,
			peakPkts: 200, basePkts: 0, nAddrs: 10, nPorts: 50, scidRatio: ratio,
			rng: *netmodel.NewRNG(9), tpl: tpl,
		}
		scids := map[string]bool{}
		d := dissect.NewDissector()
		for _, p := range drain(spec, testPool(false)) {
			r, err := d.Dissect(p.Payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range r.Packets {
				if len(pi.SCID) > 0 {
					scids[string(pi.SCID)] = true
				}
			}
		}
		return len(scids)
	}
	google := build(0.95)
	mvfst := build(0.30)
	if google <= mvfst {
		t.Errorf("SCID counts: fresh-context %d should exceed pooling %d", google, mvfst)
	}
}

func TestCommonFloodPackets(t *testing.T) {
	tpl := testTemplates(t)
	spec := floodSpec{
		vector: 1, victim: netmodel.MustAddr("38.1.2.3"),
		startSec: 0, durSec: 120, peakPkts: 40, basePkts: 10, nAddrs: 4, nPorts: 8,
		rng: *netmodel.NewRNG(6), tpl: tpl,
	}
	icmp := spec
	for _, p := range drain(&spec, testPool(false)) {
		if p.Proto != telescope.ProtoTCP || p.Payload != nil {
			t.Fatal("TCP flood shape wrong")
		}
		if p.Flags != telescope.FlagSYN|telescope.FlagACK && p.Flags != telescope.FlagRST {
			t.Fatalf("flags = %x", p.Flags)
		}
	}
	icmp.vector = 2
	icmp.rng = *netmodel.NewRNG(7)
	for _, p := range drain(&icmp, testPool(false)) {
		if p.Proto != telescope.ProtoICMP {
			t.Fatal("ICMP flood shape wrong")
		}
	}
}

func TestBotSpecSessions(t *testing.T) {
	tpl := testTemplates(t)
	bot := &botSpec{
		src: netmodel.MustAddr("103.110.7.7"), version: wire.Version1,
		visits: []float64{1000, 50000}, pktsPer: 11, srcPort: 5555,
		rng: *netmodel.NewRNG(8), tpl: tpl, withload: true,
	}
	pkts := drain(bot, testPool(false))
	if len(pkts) < 2 {
		t.Fatalf("packets = %d", len(pkts))
	}
	d := dissect.NewDissector()
	var last telescope.Timestamp
	for i := range pkts {
		p := &pkts[i]
		if p.TS < last {
			t.Fatal("bot packets out of order")
		}
		last = p.TS
		if !p.IsRequest() {
			t.Fatal("bot packet not a request")
		}
		r, err := d.Dissect(p.Payload)
		if err != nil || !r.First().HasClientHello {
			t.Fatal("bot payload not a client initial")
		}
	}
}

func TestGeneratorSmallScaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("generation run")
	}
	gen, err := New(Config{Seed: 42, Scale: 0.004, ResearchThin: 65536})
	if err != nil {
		t.Fatal(err)
	}
	var (
		n        int
		last     telescope.Timestamp
		reqs     int
		resps    int
		research uint64
		quicPay  int
	)
	inet := gen.cfg.Internet
	gen.Feeds(1, false)[0].Run(func(p *telescope.Packet) {
		n++
		if p.TS < last {
			t.Fatalf("stream out of order at packet %d", n)
		}
		last = p.TS
		if !netmodel.InTelescope(p.Dst) {
			t.Fatalf("packet outside telescope: %v", p.Dst)
		}
		if inet.IsResearchSource(p.Src) {
			research += p.EffectiveWeight()
			return
		}
		if p.IsRequest() {
			reqs++
		}
		if p.IsResponse() {
			resps++
		}
		if p.Payload != nil && p.Proto == telescope.ProtoUDP {
			quicPay++
		}
	})
	if n == 0 {
		t.Fatal("no packets generated")
	}
	truth := gen.Truth
	if truth.QUICAttacks < 5 || truth.CommonAttacks < 500 {
		t.Fatalf("truth: %+v", truth)
	}
	// Research dominates raw counts even at extreme thinning.
	if research == 0 {
		t.Error("no research traffic")
	}
	if reqs == 0 || resps == 0 {
		t.Fatalf("reqs=%d resps=%d", reqs, resps)
	}
	// Sanitized responses outnumber requests (85/15 split in paper).
	if resps < reqs {
		t.Errorf("responses (%d) should dominate requests (%d)", resps, reqs)
	}
	if quicPay == 0 {
		t.Error("no QUIC payloads generated")
	}
	// Multi-vector intents follow the 51/40/9 split.
	totalMV := truth.Concurrent + truth.Sequential + truth.QUICOnly
	if totalMV != truth.QUICAttacks {
		t.Errorf("intent sum %d != attacks %d", totalMV, truth.QUICAttacks)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (int, telescope.Timestamp) {
		gen, err := New(Config{Seed: 7, Scale: 0.001, SkipResearch: true})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		var lastTS telescope.Timestamp
		gen.Feeds(1, false)[0].Run(func(p *telescope.Packet) { n++; lastTS = p.TS })
		return n, lastTS
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", n1, t1, n2, t2)
	}
	if n1 == 0 {
		t.Fatal("no packets")
	}
}

// testSource is a Source over fixed packets, planning exactly them. Like
// a bot, it copies them into one pool slab on its first next and hands
// them out through chunks.
type testSource struct {
	start   telescope.Timestamp
	src     netmodel.Addr
	planned uint64
	pkts    []telescope.Packet
	built   bool
	chunks  chunks
}

func newTestSource(start telescope.Timestamp, src netmodel.Addr, pkts []telescope.Packet) *testSource {
	return &testSource{start: start, src: src, planned: uint64(len(pkts)), pkts: pkts}
}

func (s *testSource) StartTime() telescope.Timestamp { return s.start }

func (s *testSource) Src() netmodel.Addr { return s.src }

func (s *testSource) plannedPackets() uint64 { return s.planned }

func (s *testSource) next(pool *slabPool) (*telescope.Packet, bool) {
	if !s.built {
		s.chunks.cur, s.built = append(pool.get(len(s.pkts)), s.pkts...), true
	}
	if s.chunks.used() {
		s.chunks.release(pool)
		return nil, false
	}
	return s.chunks.take(), true
}

// testPool is a pool outside any merger, counting into its own bank.
// Without recycling it allocates on get and drops on put.
func testPool(recycle bool) *slabPool {
	return &slabPool{recycle: recycle, stats: new(telemetry.Generate)}
}
