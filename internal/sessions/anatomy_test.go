package sessions

import (
	"math/rand"
	"testing"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// spoofedPeers draws n (telescope address, port) pairs the way a
// spoofing attacker spreads its victim's replies: uniform over the /9
// and over the unprivileged ports.
func spoofedPeers(n int, seed int64) ([]netmodel.Addr, []uint16) {
	rng := rand.New(rand.NewSource(seed))
	addrs, ports := make([]netmodel.Addr, n), make([]uint16, n)
	for i := range addrs {
		addrs[i] = netmodel.TelescopePrefix.Nth(uint64(rng.Int63n(int64(netmodel.TelescopePrefix.Size()))))
		ports[i] = uint16(1024 + rng.Intn(65536-1024))
	}
	return addrs, ports
}

func fixedPort(port uint16) func(int) uint16 { return func(int) uint16 { return port } }

// TestAnatomyOnlyOnResponses pins where Figure 9's anatomy comes from:
// peer addresses and ports are recorded on QUIC responses only, the
// packets whose SCIDs are recorded too. A TCP or ICMP victim answering
// thousands of spoofed peers, and a scanner's request session, read 0
// and spill nothing; a QUIC response session still spills at the 9th
// address or port.
func TestAnatomyOnlyOnResponses(t *testing.T) {
	const n, runs = 10000, 4
	// Fresh peers for the warm-up pass and for the measured passes alike.
	addrs, ports := spoofedPeers((1+runs)*n+1, 1)

	for _, tc := range []struct {
		name             string
		proto            telescope.Proto
		srcPort, dstPort func(i int) uint16
	}{
		{"tcp backscatter", telescope.ProtoTCP, fixedPort(80), func(i int) uint16 { return ports[i] }},
		{"icmp backscatter", telescope.ProtoICMP, fixedPort(0), fixedPort(0)},
		{"quic requests", telescope.ProtoUDP, func(i int) uint16 { return ports[i] }, fixedPort(telescope.PortQUIC)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []*Session
			sz := NewSessionizer(func(s *Session) { got = append(got, s) })
			base := telescope.TS(telescope.MeasurementStart)
			p := &telescope.Packet{Src: netmodel.MustAddr("93.184.216.34"), Proto: tc.proto, Size: 60}
			i := 0
			observe := func() {
				p.TS = base + telescope.Timestamp(i)
				p.Dst, p.SrcPort, p.DstPort = addrs[i], tc.srcPort(i), tc.dstPort(i)
				i++
				sz.Observe(p, nil)
			}
			observe() // opens the Session
			// AllocsPerRun runs the loop once to warm up, then runs times
			// measured, and divides the process's mallocs by runs, rounding
			// down: one allocation per run fails, a single allocation
			// elsewhere in the process during the measurement does not.
			if allocs := testing.AllocsPerRun(runs, func() {
				for j := 0; j < n; j++ {
					observe()
				}
			}); allocs != 0 {
				t.Errorf("%d packets after the Session allocated %.0f times, want 0", n, allocs)
			}
			sz.Flush()
			if len(got) != 1 {
				t.Fatalf("%d sessions, want 1", len(got))
			}
			s := got[0]
			if s.Packets != (1+runs)*n+1 || s.UniquePeerAddrs() != 0 || s.UniquePeerPorts() != 0 || s.UniqueSCIDs() != 0 {
				t.Errorf("%d packets: peers %d, ports %d, SCIDs %d; want 0 0 0",
					s.Packets, s.UniquePeerAddrs(), s.UniquePeerPorts(), s.UniqueSCIDs())
			}
			if sz.Metrics.SetSpills != 0 {
				t.Errorf("SetSpills %d, want 0", sz.Metrics.SetSpills)
			}
		})
	}

	t.Run("quic responses", func(t *testing.T) {
		sz := NewSessionizer(nil)
		var s Session
		sz.Emit = func(x *Session) { s = *x } // lent for the call: keep a copy
		base := telescope.TS(telescope.MeasurementStart)
		r := &dissect.Result{Valid: true, Packets: []dissect.PacketInfo{{Type: wire.PacketTypeHandshake, Version: wire.VersionDraft29, SCID: wire.ConnectionID{7}}}}
		for i := 0; i < 9; i++ {
			// A mixed session's request half records nothing either.
			req := &telescope.Packet{TS: base + telescope.Timestamp(2*i), Src: netmodel.MustAddr("142.250.0.1"),
				Dst: addrs[n-1-i], SrcPort: ports[n-1-i], DstPort: telescope.PortQUIC, Size: 1200}
			sz.Observe(req, nil)
			resp := &telescope.Packet{TS: base + telescope.Timestamp(2*i+1), Src: netmodel.MustAddr("142.250.0.1"),
				Dst: addrs[i], SrcPort: telescope.PortQUIC, DstPort: ports[i], Size: 1200}
			sz.Observe(resp, r)
			a := *sz.active.At(sz.active.Lookup(resp.Src))
			if spilled := a.peerAddrs.t != nil || a.peerPorts.t != nil; spilled != (i == 8) {
				t.Fatalf("after %d responses: spilled = %v, want %v", i+1, spilled, i == 8)
			}
		}
		sz.Flush()
		if s.Kind() != KindMixed || s.UniquePeerAddrs() != 9 || s.UniquePeerPorts() != 9 || s.UniqueSCIDs() != 1 {
			t.Errorf("%v session: peers %d, ports %d, SCIDs %d; want mixed 9 9 1",
				s.Kind(), s.UniquePeerAddrs(), s.UniquePeerPorts(), s.UniqueSCIDs())
		}
		if sz.Metrics.SetSpills != 2 {
			t.Errorf("SetSpills %d, want 2 (peer addresses and ports)", sz.Metrics.SetSpills)
		}
	})
}

// BenchmarkObserveCommonBackscatter prices the common-vector path that
// dominates a telescope month: one TCP victim answering spoofed peers
// spread over the /9 on random ports, every packet continuing one
// session.
func BenchmarkObserveCommonBackscatter(b *testing.B) {
	const n = 1 << 16
	addrs, ports := spoofedPeers(n, 2)
	sz := NewSessionizer(nil)
	base := telescope.TS(telescope.MeasurementStart)
	p := &telescope.Packet{Src: netmodel.MustAddr("93.184.216.34"), Proto: telescope.ProtoTCP, SrcPort: 80, Size: 60}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TS = base + telescope.Timestamp(i)
		p.Dst, p.DstPort = addrs[i%n], ports[i%n]
		sz.Observe(p, nil)
	}
}
