package sessions

import (
	"testing"
	"time"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

func pkt(src string, at time.Duration, response bool) *telescope.Packet {
	p := &telescope.Packet{
		TS:   telescope.TS(telescope.MeasurementStart.Add(at)),
		Src:  netmodel.MustAddr(src),
		Dst:  netmodel.MustAddr("44.0.0.1"),
		Size: 1200,
	}
	if response {
		p.SrcPort, p.DstPort = 443, 50000
	} else {
		p.SrcPort, p.DstPort = 50000, 443
	}
	return p
}

func TestSessionizerSplitsOnTimeout(t *testing.T) {
	var got []*Session
	sz := NewSessionizer(func(s *Session) { got = append(got, s) })

	sz.Observe(pkt("1.1.1.1", 0, false), nil)
	sz.Observe(pkt("1.1.1.1", time.Minute, false), nil)
	// Gap of 6 min > 5 min timeout ⇒ new session.
	sz.Observe(pkt("1.1.1.1", 7*time.Minute, false), nil)
	sz.Flush()

	if len(got) != 2 {
		t.Fatalf("sessions = %d", len(got))
	}
	if got[0].Packets != 2 || got[1].Packets != 1 {
		t.Errorf("packet counts: %d, %d", got[0].Packets, got[1].Packets)
	}
	if got[0].Duration() != 60 {
		t.Errorf("first duration = %f", got[0].Duration())
	}
}

func TestSessionizerPerSource(t *testing.T) {
	var got []*Session
	sz := NewSessionizer(func(s *Session) { got = append(got, s) })
	sz.Observe(pkt("1.1.1.1", 0, false), nil)
	sz.Observe(pkt("2.2.2.2", time.Second, true), nil)
	sz.Observe(pkt("1.1.1.1", 2*time.Second, false), nil)
	sz.Flush()
	if len(got) != 2 {
		t.Fatalf("sessions = %d", len(got))
	}
	byKind := map[Kind]int{}
	for _, s := range got {
		byKind[s.Kind()]++
	}
	if byKind[KindRequestOnly] != 1 || byKind[KindResponseOnly] != 1 {
		t.Errorf("kinds = %v", byKind)
	}
}

func TestSessionKindMixed(t *testing.T) {
	s := &Session{Requests: 1, Responses: 1}
	if s.Kind() != KindMixed {
		t.Error("mixed kind")
	}
	if KindRequestOnly.String() != "requests-only" || KindResponseOnly.String() != "responses-only" || KindMixed.String() != "mixed" {
		t.Error("kind strings")
	}
}

func TestMaxPPSOverMinuteSlots(t *testing.T) {
	var got []*Session
	sz := NewSessionizer(func(s *Session) { got = append(got, s) })
	// 120 packets in minute 0 (2 pps), 6 packets in minute 2 (0.1 pps).
	for i := 0; i < 120; i++ {
		sz.Observe(pkt("9.9.9.9", time.Duration(i)*500*time.Millisecond, true), nil)
	}
	for i := 0; i < 6; i++ {
		sz.Observe(pkt("9.9.9.9", 2*time.Minute+time.Duration(i)*10*time.Second, true), nil)
	}
	sz.Flush()
	if len(got) != 1 {
		t.Fatalf("sessions = %d", len(got))
	}
	if pps := got[0].MaxPPS(); pps != 2.0 {
		t.Errorf("max pps = %f, want 2.0", pps)
	}
}

func TestSessionDissectionStats(t *testing.T) {
	var got []*Session
	sz := NewSessionizer(func(s *Session) { got = append(got, s) })

	mk := func(scid byte, version wire.Version, typ wire.PacketType, hasCH bool) *dissect.Result {
		return &dissect.Result{
			Valid: true,
			Packets: []dissect.PacketInfo{{
				Type: typ, Version: version,
				SCID:           wire.ConnectionID{scid},
				HasClientHello: hasCH,
			}},
		}
	}

	p1 := pkt("142.250.0.1", 0, true)
	p2 := pkt("142.250.0.1", time.Second, true)
	p2.DstPort = 50001 // second spoofed client port
	p2.Dst = netmodel.MustAddr("44.0.0.2")
	p3 := pkt("142.250.0.1", 2*time.Second, true)

	sz.Observe(p1, mk(1, wire.VersionDraft29, wire.PacketTypeInitial, false))
	sz.Observe(p2, mk(2, wire.VersionDraft29, wire.PacketTypeHandshake, false))
	sz.Observe(p3, mk(2, wire.VersionDraft27, wire.PacketTypeHandshake, false))
	sz.Flush()

	s := got[0]
	if s.UniqueSCIDs() != 2 {
		t.Errorf("unique SCIDs = %d", s.UniqueSCIDs())
	}
	if s.UniquePeerAddrs() != 2 {
		t.Errorf("peer addrs = %d", s.UniquePeerAddrs())
	}
	if s.UniquePeerPorts() != 2 {
		t.Errorf("peer ports = %d", s.UniquePeerPorts())
	}
	if s.DominantVersion() != wire.VersionDraft29 {
		t.Errorf("dominant version = %v", s.DominantVersion())
	}
	if s.InitialShare() != 1.0/3 {
		t.Errorf("initial share = %f", s.InitialShare())
	}
	if s.HandshakeShare() != 2.0/3 {
		t.Errorf("handshake share = %f", s.HandshakeShare())
	}
	if s.hasCH != 0 {
		t.Errorf("client hellos = %d", s.hasCH)
	}
}

func TestLazyExpiryBoundsMemory(t *testing.T) {
	sz := NewSessionizer(nil)
	// 10k sources, each sending once, spread over hours: the active
	// map must not hold them all at the end.
	for i := 0; i < 10000; i++ {
		at := time.Duration(i) * time.Second
		src := netmodel.Addr(0x0a000000 + uint32(i))
		sz.Observe(&telescope.Packet{
			TS: telescope.TS(telescope.MeasurementStart.Add(at)), Src: src,
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 443, DstPort: 999, Size: 100,
		}, nil)
	}
	if sz.ActiveSessions() > 1000 {
		t.Errorf("active map holds %d sources; expiry not working", sz.ActiveSessions())
	}
	sz.Flush()
	if sz.Metrics.Emitted != 10000 {
		t.Errorf("emitted = %d", sz.Metrics.Emitted)
	}
	if sz.ActiveSessions() != 0 {
		t.Error("flush left active sessions")
	}
}

func TestTimeoutSweep(t *testing.T) {
	ts := NewTimeoutSweep()
	for i := 0; i < 100; i++ {
		ts.RecordSource(netmodel.Addr(i))
	}
	// 50 gaps of 3 minutes, 20 gaps of 10 minutes, 5 gaps of 2 hours.
	for i := 0; i < 50; i++ {
		ts.RecordGap(3 * time.Minute)
	}
	for i := 0; i < 20; i++ {
		ts.RecordGap(10 * time.Minute)
	}
	for i := 0; i < 5; i++ {
		ts.RecordGap(2 * time.Hour)
	}

	if ts.LowerBound() != 100 {
		t.Errorf("lower bound = %d", ts.LowerBound())
	}
	// timeout 1: all 75 gaps split ⇒ 175.
	if got := ts.Sessions(1); got != 175 {
		t.Errorf("Sessions(1) = %d", got)
	}
	// timeout 3: exact 3-min gaps no longer split (gap ≤ timeout).
	if got := ts.Sessions(3); got != 125 {
		t.Errorf("Sessions(3) = %d", got)
	}
	// timeout 5: 10-min and 2-h gaps split ⇒ 125.
	if got := ts.Sessions(5); got != 125 {
		t.Errorf("Sessions(5) = %d", got)
	}
	// timeout 10: only 2-h gaps ⇒ 105.
	if got := ts.Sessions(10); got != 105 {
		t.Errorf("Sessions(10) = %d", got)
	}
	// timeout 60: still 105 (gaps > 60 always split).
	if got := ts.Sessions(60); got != 105 {
		t.Errorf("Sessions(60) = %d", got)
	}
	// Monotone non-increasing in timeout.
	prev := ts.Sessions(1)
	for m := 2; m <= 60; m++ {
		cur := ts.Sessions(m)
		if cur > prev {
			t.Fatalf("sweep not monotone at %d: %d > %d", m, cur, prev)
		}
		prev = cur
	}
}

func TestSweepIntegrationWithSessionizer(t *testing.T) {
	// The sweep derived from GapRecorder must agree with running the
	// sessionizer at each timeout.
	gaps := []time.Duration{30 * time.Second, 2 * time.Minute, 7 * time.Minute, 12 * time.Minute}
	build := func(timeout time.Duration) int {
		n := 0
		sz := NewSessionizer(func(*Session) { n++ })
		sz.Timeout = timeout
		at := time.Duration(0)
		sz.Observe(pkt("3.3.3.3", at, false), nil)
		for _, g := range gaps {
			at += g
			sz.Observe(pkt("3.3.3.3", at, false), nil)
		}
		sz.Flush()
		return n
	}

	sweep := NewTimeoutSweep()
	sweep.RecordSource(netmodel.MustAddr("3.3.3.3"))
	for _, g := range gaps {
		sweep.RecordGap(g)
	}
	for _, m := range []int{1, 5, 10, 60} {
		want := build(time.Duration(m) * time.Minute)
		if got := sweep.Sessions(m); int(got) != want {
			t.Errorf("timeout %d min: sweep %d, sessionizer %d", m, got, want)
		}
	}
}
