package oracle

import (
	"testing"

	"quicsand/internal/dosdetect"
	"quicsand/internal/ibr"
	"quicsand/internal/scenario"
)

func TestRange(t *testing.T) {
	r := Exact(5)
	if !r.IsExact() || !r.Contains(5) || r.Contains(4) || r.Contains(6) {
		t.Errorf("Exact(5) misbehaves: %+v", r)
	}
	b := Range{Min: 2, Max: 9}
	if b.IsExact() || !b.Contains(2) || !b.Contains(9) || b.Contains(1) || b.Contains(10) {
		t.Errorf("Range{2,9} misbehaves: %+v", b)
	}
	if got := r.Add(b); got.Min != 7 || got.Max != 14 {
		t.Errorf("Add = %+v", got)
	}
	if r.String() != "5" || b.String() != "[2, 9]" {
		t.Errorf("String: %q, %q", r.String(), b.String())
	}
}

func TestRelaxRange(t *testing.T) {
	r := Range{Min: 10, Max: 20}
	if got := relaxRange(r, 3); got.Min != 7 || got.Max != 20 {
		t.Errorf("relaxRange(%+v, 3) = %+v, want floor 7 and an untouched ceiling", r, got)
	}
	if got := relaxRange(r, 15); got.Min != 0 || got.Max != 20 {
		t.Errorf("relaxRange(%+v, 15) = %+v, want the floor clamped at 0", r, got)
	}
	if got := relaxRange(r, 0); got != r {
		t.Errorf("relaxRange(%+v, 0) = %+v, want identity", r, got)
	}
}

func TestAttackSessionMinPackets(t *testing.T) {
	// Paper thresholds: > 25 packets AND > 0.5 max pps ⇒ some minute
	// holds ≥ 31 packets, which dominates.
	if got := attackSessionMinPackets(dosdetect.Default()); got != 31 {
		t.Errorf("default floor = %d, want 31", got)
	}
	// A heavy packet threshold dominates the rate floor.
	heavy := dosdetect.Thresholds{MinPackets: 100, MinDuration: 60, MinMaxPPS: 0.5}
	if got := attackSessionMinPackets(heavy); got != 101 {
		t.Errorf("heavy floor = %d, want 101", got)
	}
}

func TestAttackCap(t *testing.T) {
	th := dosdetect.Default()
	cases := []struct {
		packets uint64
		span    float64
		want    int
	}{
		{1000, 30, 0},    // span below the duration threshold: no attack fits
		{1000, 60, 0},    // exactly the threshold still fails the strict >
		{1000, 65, 1},    // one short attack fits
		{30, 10000, 0},   // packet budget below one session's floor
		{62, 10000, 2},   // two sessions by packets, span plenty
		{100000, 700, 2}, // 2·60 + 1·300 = 420 ≤ span < 780: duration-capped
		{100000, 10000, 28},
	}
	for _, c := range cases {
		if got := attackCap(th, c.packets, c.span); got != c.want {
			t.Errorf("attackCap(%d pkts, %.0f s) = %d, want %d", c.packets, c.span, got, c.want)
		}
	}
}

// TestExpectInvariants compiles a small mixed scenario and checks the
// Expectation's internal consistency: totals match per-entity sums,
// flood phases are exact and measurable, and bounds nest sanely.
func TestExpectInvariants(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "oracle-unit",
		Phases: []ibr.Phase{
			{Kind: ibr.KindScan, Sources: 30},
			{Kind: ibr.KindFlood, Vector: "quic", Attacks: 12,
				Victims:  ibr.VictimPool{Org: "Google", Size: 5},
				Rate:     ibr.RateCurve{Shape: "square", BasePPS: 0.3},
				Duration: ibr.Duration{MedianSec: 120, Sigma: 0.5}},
			{Kind: ibr.KindMisconfig, Sources: 10},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	exp, err := Expect(sc, ibr.Config{Seed: 42, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Collisions) != 0 {
		t.Fatalf("unexpected collisions: %v", exp.Collisions)
	}
	if exp.QUICEvents != 12 || exp.ScanBots != 30 || exp.MisconfScheduled != 10 {
		t.Fatalf("event counts: %d events, %d bots, %d responders",
			exp.QUICEvents, exp.ScanBots, exp.MisconfScheduled)
	}

	var perVictim uint64
	events := 0
	for _, v := range exp.Victims {
		perVictim += v.Packets
		events += v.Events
		if v.Packets != v.Arrivals { // no amplification in this scenario
			t.Errorf("amp-free victim has %d packets over %d arrivals", v.Packets, v.Arrivals)
		}
		if !v.PacketRange.IsExact() || v.PacketRange.Min != v.Packets {
			t.Errorf("clean victim not exact: %+v", v.PacketRange)
		}
		if v.First >= v.Last {
			t.Errorf("degenerate span [%d, %d]", v.First, v.Last)
		}
		if v.AnyRetry || v.AllRetry {
			t.Errorf("retry flags set on an unmitigated victim: any=%v all=%v", v.AnyRetry, v.AllRetry)
		}
		if len(v.Versions) == 0 {
			t.Error("victim with no compiled versions")
		}
	}
	if perVictim != exp.QUICPackets || events != exp.QUICEvents {
		t.Fatalf("victim sums (%d pkts, %d events) disagree with totals (%d, %d)",
			perVictim, events, exp.QUICPackets, exp.QUICEvents)
	}

	if len(exp.Phases) != 3 {
		t.Fatalf("phases: %+v", exp.Phases)
	}
	for _, p := range exp.Phases {
		if !p.Measurable {
			t.Errorf("phase %s not measurable despite disjoint sources", p.Label)
		}
	}
	flood := exp.Phases[1]
	if flood.Kind != ibr.KindFlood || !flood.Packets.IsExact() ||
		flood.Packets.Min != exp.QUICPackets {
		t.Errorf("flood phase: %+v", flood)
	}

	resp := exp.ResponsePackets()
	if resp.Min > resp.Max || resp.Min < exp.QUICPackets {
		t.Errorf("response bound %v vs flood volume %d", resp, exp.QUICPackets)
	}
	if exp.DistinctQUICSources() < len(exp.Victims)+len(exp.Misconf) {
		t.Errorf("distinct sources %d below responder floor", exp.DistinctQUICSources())
	}
	if exp.QUICAttackCap() <= 0 {
		t.Error("flood scenario with a zero attack cap")
	}
}
