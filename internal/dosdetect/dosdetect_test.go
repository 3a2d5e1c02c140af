package dosdetect

import (
	"testing"
	"time"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// buildSession fabricates a QUIC response session with the given shape
// by running packets through a real sessionizer.
func buildSession(t *testing.T, src string, packets int, duration time.Duration, burstPerMin int) *sessions.Session {
	t.Helper()
	return buildSessionOf(t, telescope.ProtoUDP, src, packets, duration, burstPerMin)
}

// buildSessionOf is buildSession for any protocol: a TCP or ICMP session
// answers the same spoofed peers and ports, with nothing to dissect.
func buildSessionOf(t *testing.T, proto telescope.Proto, src string, packets int, duration time.Duration, burstPerMin int) *sessions.Session {
	t.Helper()
	var got []*sessions.Session
	sz := sessions.NewSessionizer(func(s *sessions.Session) { got = append(got, s) })
	sz.Timeout = time.Hour // keep one session

	start := telescope.MeasurementStart
	for i := 0; i < packets; i++ {
		var at time.Duration
		if burstPerMin > 0 {
			// Pack burstPerMin packets into each minute.
			at = time.Duration(i/burstPerMin)*time.Minute + time.Duration(i%burstPerMin)*time.Second/4
		} else if packets > 1 {
			at = duration * time.Duration(i) / time.Duration(packets-1)
		}
		p := &telescope.Packet{
			TS: telescope.TS(start.Add(at)), Src: netmodel.MustAddr(src),
			Dst: netmodel.Addr(0x2c000000 + uint32(i)), SrcPort: 443, DstPort: uint16(40000 + i),
			Proto: proto, Size: 300,
		}
		var r *dissect.Result
		if proto == telescope.ProtoUDP {
			r = &dissect.Result{Valid: true, Packets: []dissect.PacketInfo{{
				Type: wire.PacketTypeInitial, Version: wire.VersionDraft29,
				SCID: wire.ConnectionID{byte(i), byte(i >> 8)},
			}}}
		}
		sz.Observe(p, r)
	}
	sz.Flush()
	if len(got) != 1 {
		t.Fatalf("expected 1 session, got %d", len(got))
	}
	return got[0]
}

func TestThresholdsMatchPaperDefaults(t *testing.T) {
	th := Default()
	if th.MinPackets != 25 || th.MinDuration != 60 || th.MinMaxPPS != 0.5 {
		t.Fatalf("defaults = %+v", th)
	}

	// 100 packets over 5 min at ~40/min ⇒ attack.
	attack := buildSession(t, "142.250.1.1", 200, 5*time.Minute, 40)
	if !th.Match(attack) {
		t.Errorf("attack session rejected: pkts=%d dur=%.0f maxpps=%.2f",
			attack.Packets, attack.Duration(), attack.MaxPPS())
	}

	// Appendix B's excluded profile: 11 packets over 7 s.
	noise := buildSession(t, "142.250.1.2", 11, 7*time.Second, 0)
	if th.Match(noise) {
		t.Error("low-volume session accepted")
	}
}

func TestThresholdEdgeConditions(t *testing.T) {
	// Exactly 25 packets must NOT match (strictly more required).
	s := buildSession(t, "1.2.3.4", 25, 2*time.Minute, 13)
	if Default().Match(s) {
		t.Error("exactly-25-packet session matched")
	}
	// Long but slow: 30 packets over 10 min ⇒ max pps too low.
	slow := buildSession(t, "1.2.3.5", 30, 10*time.Minute, 3)
	if Default().Match(slow) {
		t.Errorf("slow session matched: maxpps=%.2f", slow.MaxPPS())
	}
}

func TestWeighted(t *testing.T) {
	th := Default().Weighted(2)
	if th.MinPackets != 50 || th.MinDuration != 120 || th.MinMaxPPS != 1.0 {
		t.Errorf("w=2: %+v", th)
	}
	relaxed := Default().Weighted(0.5)
	if relaxed.MinPackets != 12 || relaxed.MinDuration != 30 {
		t.Errorf("w=0.5: %+v", relaxed)
	}
}

func TestDetectorFlow(t *testing.T) {
	d := NewDetector(VectorQUIC)
	attack := buildSession(t, "142.250.1.1", 200, 5*time.Minute, 40)
	noise := buildSession(t, "142.250.1.2", 11, 7*time.Second, 0)
	d.Offer(attack)
	d.Offer(noise)

	// Request sessions are never attacks.
	reqSession := &sessions.Session{Requests: 50}
	d.Offer(reqSession)

	if len(d.Attacks) != 1 || len(d.Excluded) != 1 || d.Inspected != 2 {
		t.Fatalf("attacks=%d excluded=%d inspected=%d", len(d.Attacks), len(d.Excluded), d.Inspected)
	}
	a := d.Attacks[0]
	if a.Victim != netmodel.MustAddr("142.250.1.1") {
		t.Errorf("victim = %v", a.Victim)
	}
	if a.UniqueSCIDs == 0 || a.SpoofedClients == 0 || a.ClientPorts == 0 {
		t.Errorf("anatomy empty: %+v", a)
	}
	if a.Version != wire.VersionDraft29 {
		t.Errorf("version = %v", a.Version)
	}
}

// TestAttackAnatomyOnlyForQUIC: a common attack carries no Figure 9
// anatomy, while a QUIC attack over the same spoofed peers counts every
// one of them.
func TestAttackAnatomyOnlyForQUIC(t *testing.T) {
	quic := NewDetector(VectorQUIC)
	quic.Offer(buildSession(t, "142.250.1.1", 200, 5*time.Minute, 40))
	if len(quic.Attacks) != 1 {
		t.Fatalf("QUIC: %d attacks, want 1", len(quic.Attacks))
	}
	a := quic.Attacks[0]
	if a.UniqueSCIDs != 200 || a.SpoofedClients != 200 || a.ClientPorts != 200 ||
		a.Version != wire.VersionDraft29 || a.InitialShare != 1 || a.HandshakeShare != 0 {
		t.Errorf("QUIC anatomy %+v, want 200 SCIDs, clients and ports, draft-29, all Initials", a)
	}

	common := NewDetector(VectorCommon)
	common.DropExcluded = true
	for i, proto := range []telescope.Proto{telescope.ProtoTCP, telescope.ProtoICMP} {
		common.Offer(buildSessionOf(t, proto, netmodel.Addr(0x5db8d800+uint32(i)).String(), 200, 5*time.Minute, 40))
	}
	if len(common.Attacks) != 2 {
		t.Fatalf("common: %d attacks, want 2", len(common.Attacks))
	}
	for _, c := range common.Attacks {
		want := Attack{Vector: VectorCommon, Victim: c.Victim, Start: c.Start, End: c.End, Packets: 200, MaxPPS: a.MaxPPS}
		if c != want {
			t.Errorf("common attack %+v, want no anatomy: %+v", c, want)
		}
	}
}

func TestAttackOverlapAndGap(t *testing.T) {
	mk := func(start, end int64) *Attack {
		return &Attack{Start: telescope.Timestamp(start * 1000), End: telescope.Timestamp(end * 1000)}
	}
	a := mk(100, 200)
	b := mk(150, 250)
	if ov := a.Overlap(b); ov != 50 {
		t.Errorf("overlap = %f", ov)
	}
	if g := a.Gap(b); g != 0 {
		t.Errorf("gap of overlapping = %f", g)
	}
	c := mk(300, 400)
	if ov := a.Overlap(c); ov != 0 {
		t.Errorf("disjoint overlap = %f", ov)
	}
	if g := a.Gap(c); g != 100 {
		t.Errorf("gap = %f", g)
	}
	if g := c.Gap(a); g != 100 {
		t.Errorf("gap reversed = %f", g)
	}
	if d := a.Duration(); d != 100 {
		t.Errorf("duration = %f", d)
	}
}

func TestVictimCounts(t *testing.T) {
	v1, v2 := netmodel.Addr(1), netmodel.Addr(2)
	attacks := []Attack{{Victim: v1}, {Victim: v1}, {Victim: v2}}
	counts := VictimCounts(attacks)
	if counts[v1] != 2 || counts[v2] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestWeightSweepMonotone(t *testing.T) {
	var sess []*sessions.Session
	// Graded attack sizes so higher weights exclude more.
	shapes := []struct {
		pkts  int
		burst int
	}{{30, 30}, {80, 60}, {200, 100}, {600, 200}, {2000, 400}}
	for i, sh := range shapes {
		s := buildSession(t, netmodel.Addr(0x8efa0000+uint32(i)).String(), sh.pkts, 10*time.Minute, sh.burst)
		sess = append(sess, s)
	}
	weights := []float64{0.5, 1, 2, 4, 8}
	counts, shares := WeightSweep(sess, weights, func(netmodel.Addr) bool { return true })
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("sweep not monotone: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("relaxed weight found nothing")
	}
	for i, s := range shares {
		if counts[i] > 0 && s != 100 {
			t.Errorf("share[%d] = %f with always-true predicate", i, s)
		}
	}
}

func TestVectorString(t *testing.T) {
	if VectorQUIC.String() != "QUIC" || VectorCommon.String() != "TCP/ICMP" {
		t.Error("vector strings")
	}
}

func TestDetectorSorted(t *testing.T) {
	d := NewDetector(VectorCommon)
	d.Attacks = []Attack{
		{Start: 3000, Victim: 1},
		{Start: 1000, Victim: 2},
		{Start: 1000, Victim: 1},
	}
	sorted := d.Sorted()
	if sorted[0].Start != 1000 || sorted[0].Victim != 1 || sorted[2].Start != 3000 {
		t.Errorf("sorted = %+v", sorted)
	}
}
