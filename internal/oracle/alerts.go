package oracle

import (
	"fmt"
	"sort"

	"quicsand/internal/detect"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
)

// Alert-stream oracle (DESIGN.md §17): provable bounds on the
// sliding-window detectors' output, derived from the scheduling ledger
// alone. The episode semantics of internal/detect make three facts
// exact for every victim whose telescope traffic is purely flood
// backscatter:
//
//   - Containment. An episode's Start, End and PeakTS are timestamps
//     of the source's own packets, and a silence longer than the
//     window closes every open episode at the previous packet. Merge
//     the victim's QUIC flood events into clusters while the
//     inter-event gap is ≤ Window: no alert can span two clusters, so
//     every alert lies inside one cluster's [First, Last] bracket.
//
//   - Guarantee. A cluster spanning S with P packets pigeonholes into
//     K = ceil(S / EffectiveWindow) slots: some slot holds at least
//     ceil(P/K) packets, all inside the guaranteed lookback of its
//     last packet's window sum. If ceil(P/K) ≥ RateCount the rate
//     condition fires at that packet — at least one rate alert per
//     guaranteed cluster.
//
//   - Cap. Closing an episode needs a per-source silence > Window, and
//     a cluster of span S holds at most floor(S/Window) such gaps —
//     at most floor(S/Window)+1 rate alerts per cluster.
//
// Victims flagged by the schedule (research-prefix sanitized, doubling
// as a misconfig responder or a scan bot) carry extra or suppressed
// traffic and are skipped, mirroring the batch oracle's collision
// handling.

// AlertCluster is one merged run of QUIC flood events against a
// victim, with the alert bounds the episode semantics prove for it.
type AlertCluster struct {
	First, Last telescope.Timestamp
	Packets     uint64 // exact backscatter datagrams in the cluster
	Events      int
	// Guaranteed: the pigeonhole density bound crosses RateCount, so
	// at least one rate alert MUST open inside this cluster.
	Guaranteed bool
	// MaxRateAlerts caps the rate-kind episodes this cluster can close.
	MaxRateAlerts int
}

// VictimAlerts is the per-victim alert prediction.
type VictimAlerts struct {
	Victim   netmodel.Addr
	Clusters []AlertCluster
	// Rate-kind alert count bounds: MinRate counts guaranteed
	// clusters, MaxRate sums the per-cluster caps.
	MinRate, MaxRate int
}

// AlertExpectation is the ledger-derived prediction for a detector
// configuration over one (seed, scale, scenario) triple.
type AlertExpectation struct {
	Scenario  string
	Config    detect.Config
	RateCount int
	// Victims holds the checked (unflagged) victims.
	Victims map[netmodel.Addr]*VictimAlerts
	// Skipped counts victims excluded for schedule collisions
	// (sanitized, degraded, scan-bot overlap).
	Skipped int
	// Guaranteed counts clusters that must alert, across victims —
	// anti-vacuity: a meaningful expectation has at least one.
	Guaranteed int
}

// ExpectAlerts compiles the scenario's schedule and derives the alert
// bounds for the given detector configuration. A nil scenario means
// the paper's hard-coded month, exactly like oracle.Expect.
func ExpectAlerts(sc *scenario.Scenario, cfg ibr.Config, dcfg detect.Config) (*AlertExpectation, error) {
	if err := dcfg.Validate(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	exp, g, err := expect(sc, cfg)
	if err != nil {
		return nil, err
	}

	ae := &AlertExpectation{
		Scenario:  exp.Scenario,
		Config:    dcfg,
		RateCount: dcfg.RateCount(),
		Victims:   make(map[netmodel.Addr]*VictimAlerts),
	}
	windowMS := dcfg.Window.Milliseconds()
	effMS := dcfg.EffectiveWindow().Milliseconds()

	// Per-victim QUIC flood events, schedule order by first packet.
	events := make(map[netmodel.Addr][]*ibr.LedgerFlood)
	for i := range g.Ledger.Floods {
		f := &g.Ledger.Floods[i]
		if f.Vector == ibr.VectorQUIC {
			events[f.Victim] = append(events[f.Victim], f)
		}
	}
	for victim, evs := range events {
		if v := exp.Victims[victim]; v == nil || v.Sanitized || v.Degraded || exp.ScanSources[victim] {
			ae.Skipped++
			continue
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].First() != evs[j].First() {
				return evs[i].First() < evs[j].First()
			}
			return evs[i].Last() < evs[j].Last()
		})
		va := &VictimAlerts{Victim: victim}
		var cur *AlertCluster
		for _, f := range evs {
			// Merge while the inter-event gap could keep an episode
			// alive: a close needs silence STRICTLY greater than the
			// window, so gap ≤ window merges.
			if cur != nil && int64(f.First()-cur.Last) <= windowMS {
				if f.Last() > cur.Last {
					cur.Last = f.Last()
				}
				cur.Packets += f.Packets
				cur.Events++
				continue
			}
			va.Clusters = append(va.Clusters, AlertCluster{
				First: f.First(), Last: f.Last(), Packets: f.Packets, Events: 1,
			})
			cur = &va.Clusters[len(va.Clusters)-1]
		}
		for i := range va.Clusters {
			c := &va.Clusters[i]
			spanMS := int64(c.Last - c.First)
			k := int64(1)
			if effMS > 0 {
				k = (spanMS + effMS - 1) / effMS
			}
			if k < 1 {
				k = 1
			}
			density := (c.Packets + uint64(k) - 1) / uint64(k) // ceil(P/K)
			c.Guaranteed = density >= uint64(ae.RateCount)
			c.MaxRateAlerts = int(spanMS/windowMS) + 1
			if c.Guaranteed {
				va.MinRate++
				ae.Guaranteed++
			}
			va.MaxRate += c.MaxRateAlerts
		}
		ae.Victims[victim] = va
	}
	return ae, nil
}

// CheckAlerts validates a measured alert stream against the
// expectation at zero tolerance: every alert for a checked victim must
// sit inside one of its clusters, and per-victim rate-alert counts
// must land in [MinRate, MaxRate] — guaranteed clusters may not stay
// silent. Alerts from sources that are not checked victims (scan
// bots, misconfig responders, skipped victims) are ignored.
func CheckAlerts(ae *AlertExpectation, alerts []detect.Alert) []Result {
	var rs []Result

	contain := &group{name: "alert-containment", exact: true}
	rateCounts := make(map[netmodel.Addr]int)
	for i := range alerts {
		al := &alerts[i]
		va := ae.Victims[al.Src]
		if va == nil {
			continue
		}
		if al.Kind == detect.KindRate {
			rateCounts[al.Src]++
		}
		contain.total++
		ok := false
		for j := range va.Clusters {
			c := &va.Clusters[j]
			if al.Start >= c.First && al.End <= c.Last {
				ok = true
				break
			}
		}
		if !ok {
			contain.fail(
				fmt.Sprintf("%v %s #%d", al.Src, al.Kind, i),
				fmt.Sprintf("inside a flood cluster of %v", al.Src),
				fmt.Sprintf("[%d, %d] outside all %d clusters", al.Start, al.End, len(va.Clusters)))
		}
	}
	contain.flush(&rs)

	counts := &group{name: "alerts-per-victim"}
	victims := make([]netmodel.Addr, 0, len(ae.Victims))
	for v := range ae.Victims {
		victims = append(victims, v)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, victim := range victims {
		va := ae.Victims[victim]
		got := rateCounts[victim]
		counts.total++
		if got < va.MinRate || got > va.MaxRate {
			counts.fail(
				fmt.Sprint(victim),
				fmt.Sprintf("[%d, %d] rate alerts (%d clusters, %d guaranteed)",
					va.MinRate, va.MaxRate, len(va.Clusters), va.MinRate),
				fmt.Sprint(got))
		}
	}
	counts.flush(&rs)

	rs = append(rs, Result{
		Name: "alert-victims-checked",
		Want: fmt.Sprintf("%d victims (%d skipped for collisions)", len(ae.Victims), ae.Skipped),
		Got:  fmt.Sprintf("%d victims alerted on rate", len(rateCounts)),
		OK:   true,
	})
	return rs
}
