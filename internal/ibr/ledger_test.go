package ibr

import (
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// addPhase schedules p onto g under label.
func addPhase(t *testing.T, g *Generator, label string, p Phase) {
	t.Helper()
	if err := g.AddPhase(label, &p); err != nil {
		t.Fatal(err)
	}
}

// ledgerGenerator schedules one flood phase per rate-curve shape and
// amplification level onto a ledger-recording generator, so the tests
// can pin schedule-time predictions against what the sources emit.
func ledgerGenerator(t *testing.T) *Generator {
	t.Helper()
	g, err := NewEmpty(Config{
		Seed: 11, Scale: 1, SkipResearch: true,
		Identity: ibrIdentity, RecordLedger: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []Phase{
		{Vector: "quic", Attacks: 5},
		{Vector: "quic", Attacks: 5, Rate: RateCurve{Shape: "square"}, Amplification: 3},
		{Vector: "quic", Attacks: 5, Rate: RateCurve{Shape: "ramp"}, Amplification: 2.5,
			RetryMitigation: true, Duration: Duration{MedianSec: 90}},
		{Vector: "common-mix", Attacks: 8, Rate: RateCurve{BasePPS: 0.1}},
	} {
		p.Kind, p.Victims = KindFlood, VictimPool{Size: 3}
		addPhase(t, g, string(rune('a'+i)), p)
	}
	addPhase(t, g, "scan", Phase{Kind: KindScan, Sources: 20})
	addPhase(t, g, "misc", Phase{Kind: KindMisconfig, Sources: 15})
	return g
}

// TestFloodPacketsMatchesBuild is the contract behind every exact
// flood prediction: FloodPackets (schedule-time arithmetic) must equal
// the number of packets the floods stream, per victim, for
// every shape, amplification level and vector.
func TestFloodPacketsMatchesBuild(t *testing.T) {
	g := ledgerGenerator(t)
	led := g.Ledger

	wantQUIC := make(map[netmodel.Addr]uint64)
	wantCommon := make(map[netmodel.Addr]uint64)
	var wantTotalFlood uint64
	for _, f := range led.Floods {
		if f.Vector == VectorQUIC {
			wantQUIC[f.Victim] += f.Packets
		} else {
			wantCommon[f.Victim] += f.Packets
		}
		wantTotalFlood += f.Packets
		if got := f.Arrivals() * uint64(f.Amp); got != f.Packets {
			t.Errorf("%s: Arrivals×Amp = %d, Packets = %d", f.Label, got, f.Packets)
		}
	}
	if len(wantQUIC) == 0 || len(wantCommon) == 0 {
		t.Fatal("ledger missing flood entries")
	}

	gotQUIC := make(map[netmodel.Addr]uint64)
	gotCommon := make(map[netmodel.Addr]uint64)
	botPackets := make(map[netmodel.Addr]uint64)
	misconfPackets := make(map[netmodel.Addr]uint64)
	g.Feeds(1, false)[0].Run(func(p *telescope.Packet) {
		switch {
		case p.Proto != telescope.ProtoUDP:
			gotCommon[p.Src]++
		case p.IsResponse():
			if _, ok := wantQUIC[p.Src]; ok {
				gotQUIC[p.Src]++
			} else {
				misconfPackets[p.Src]++
			}
		default:
			botPackets[p.Src]++
		}
	})

	for v, want := range wantQUIC {
		if gotQUIC[v] != want {
			t.Errorf("QUIC victim %v: built %d packets, ledger predicts %d", v, gotQUIC[v], want)
		}
	}
	for v, want := range wantCommon {
		if gotCommon[v] != want {
			t.Errorf("common victim %v: built %d packets, ledger predicts %d", v, gotCommon[v], want)
		}
	}

	// Schedule-time visit counts bound the build-time packet draws.
	botVisits := make(map[netmodel.Addr]uint64)
	for _, b := range led.Bots {
		botVisits[b.Src] += uint64(b.Visits)
	}
	for src, pkts := range botPackets {
		visits := botVisits[src]
		if visits == 0 {
			t.Errorf("unscheduled bot source %v", src)
			continue
		}
		if pkts < visits*BotMinPacketsPerVisit || pkts > visits*BotMaxPacketsPerVisit {
			t.Errorf("bot %v: %d packets outside [%d, %d] for %d visits",
				src, pkts, visits*BotMinPacketsPerVisit, visits*BotMaxPacketsPerVisit, visits)
		}
	}
	misconfVisits := make(map[netmodel.Addr]uint64)
	for _, m := range led.Misconfig {
		misconfVisits[m.Src] += uint64(m.Visits)
	}
	for src, pkts := range misconfPackets {
		visits := misconfVisits[src]
		if visits == 0 {
			t.Errorf("unscheduled responder %v", src)
			continue
		}
		if pkts < visits*MisconfMinPacketsPerVisit || pkts > visits*MisconfMaxPacketsPerVisit {
			t.Errorf("responder %v: %d packets outside [%d, %d] for %d visits",
				src, pkts, visits*MisconfMinPacketsPerVisit, visits*MisconfMaxPacketsPerVisit, visits)
		}
	}
}

// TestLedgerBracketTimestamps pins the ledger's First/Last against the
// sources: a flood victim's earliest and latest packets are exactly
// the bracket packets the ledger predicts.
func TestLedgerBracketTimestamps(t *testing.T) {
	g := ledgerGenerator(t)
	first := make(map[netmodel.Addr]telescope.Timestamp)
	last := make(map[netmodel.Addr]telescope.Timestamp)
	quicVictim := make(map[netmodel.Addr]bool)
	for _, f := range g.Ledger.Floods {
		if f.Vector != VectorQUIC {
			continue
		}
		quicVictim[f.Victim] = true
		if ts, ok := first[f.Victim]; !ok || f.First() < ts {
			first[f.Victim] = f.First()
		}
		if f.Last() > last[f.Victim] {
			last[f.Victim] = f.Last()
		}
	}
	gotFirst := make(map[netmodel.Addr]telescope.Timestamp)
	gotLast := make(map[netmodel.Addr]telescope.Timestamp)
	g.Feeds(1, false)[0].Run(func(p *telescope.Packet) {
		if !quicVictim[p.Src] || !p.IsResponse() {
			return
		}
		if ts, ok := gotFirst[p.Src]; !ok || p.TS < ts {
			gotFirst[p.Src] = p.TS
		}
		if p.TS > gotLast[p.Src] {
			gotLast[p.Src] = p.TS
		}
	})
	for v := range quicVictim {
		if gotFirst[v] != first[v] || gotLast[v] != last[v] {
			t.Errorf("victim %v: built span [%d, %d], ledger predicts [%d, %d]",
				v, gotFirst[v], gotLast[v], first[v], last[v])
		}
	}
}

// TestLedgerOptIn: recording is off by default and never perturbs the
// stream — the same seed with and without a ledger yields an identical
// month.
func TestLedgerOptIn(t *testing.T) {
	run := func(record bool) (ts []telescope.Timestamp, led *Ledger) {
		g, err := NewEmpty(Config{
			Seed: 5, Scale: 1, SkipResearch: true,
			Identity: ibrIdentity, RecordLedger: record,
		})
		if err != nil {
			t.Fatal(err)
		}
		addPhase(t, g, "s", Phase{Kind: KindScan, Sources: 10})
		addPhase(t, g, "m", Phase{Kind: KindMisconfig, Sources: 5})
		g.Feeds(1, false)[0].Run(func(p *telescope.Packet) { ts = append(ts, p.TS) })
		return ts, g.Ledger
	}
	plain, noLedger := run(false)
	recorded, led := run(true)
	if noLedger != nil {
		t.Error("ledger allocated without RecordLedger")
	}
	if led == nil || len(led.Bots) != 10 || len(led.Misconfig) != 5 {
		t.Fatalf("ledger incomplete: %+v", led)
	}
	if len(plain) != len(recorded) {
		t.Fatalf("stream length changed with recording: %d vs %d", len(plain), len(recorded))
	}
	for i := range plain {
		if plain[i] != recorded[i] {
			t.Fatalf("packet %d timestamp changed with recording", i)
		}
	}
}
