// Package oracle predicts, analytically, what the analysis of a
// compiled scenario must report — and cross-validates pipeline results
// against those predictions.
//
// The golden-trace corpus (testdata/golden) freezes past behavior; it
// can detect drift but cannot say the frozen numbers were ever
// *correct*. The oracle closes that gap: it re-derives expected
// analysis outputs from first principles — the scheduling ledger
// (ibr.Ledger) records every event's exact parameters before a single
// packet is built, and the packet-count arithmetic of the event
// builders is deterministic — so a Run or Replay can be checked
// against ground truth that was never produced by the pipeline under
// test.
//
// Two assertion classes (DESIGN.md §12):
//
//   - exact counters: quantities fully determined at schedule time —
//     flood backscatter volumes (arrival counts are shape arithmetic,
//     amplification is a multiplier), research-sweep record counts,
//     per-victim first/last backscatter timestamps (bracket packets),
//     distinct QUIC source populations, Retry-free victims emitting
//     zero Retry packets. These are compared with zero tolerance.
//   - tolerance-free bounds: quantities that depend on build-time
//     draws but can never leave a provable interval — scan/misconfig
//     packet volumes (per-visit clamps), session counts, and the
//     Table 1 flood classification (Moore et al. thresholds): k
//     detected attacks on one victim need k·(minDuration) seconds
//     separated by k−1 timeout gaps inside the victim's exact
//     backscatter span, and ≥ 31 packets each out of the victim's
//     exact packet budget, giving a hard cap with no statistical
//     slack.
//
// The oracle is worker-count- and live/replay-independent by
// construction: it never looks at the packet stream.
package oracle

import (
	"fmt"
	"sort"

	"quicsand/internal/dosdetect"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Range is a tolerance-free prediction interval on a counter. Min ==
// Max states an exact prediction.
type Range struct {
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
}

// Exact builds a zero-width range.
func Exact(v uint64) Range { return Range{Min: v, Max: v} }

// IsExact reports whether the range pins a single value.
func (r Range) IsExact() bool { return r.Min == r.Max }

// Contains reports whether v satisfies the prediction.
func (r Range) Contains(v uint64) bool { return v >= r.Min && v <= r.Max }

// Add composes two independent predictions.
func (r Range) Add(o Range) Range { return Range{Min: r.Min + o.Min, Max: r.Max + o.Max} }

// String renders "N" for exact ranges and "[lo, hi]" otherwise.
func (r Range) String() string {
	if r.IsExact() {
		return fmt.Sprint(r.Min)
	}
	return fmt.Sprintf("[%d, %d]", r.Min, r.Max)
}

// VictimExpect is the oracle's per-victim prediction for QUIC flood
// backscatter: everything here is schedule-exact unless Degraded.
type VictimExpect struct {
	Org      string
	Events   int
	Packets  uint64 // exact telescope datagrams from this victim
	Arrivals uint64 // spoofed arrivals (Packets / amplification)
	// First/Last are the exact timestamps of the earliest and latest
	// backscatter packet (the events' bracket packets).
	First, Last telescope.Timestamp
	// Versions the victim's events were compiled with; observed
	// session versions must be a subset.
	Versions map[wire.Version]bool
	// AnyRetry / AllRetry: whether some/every event answers with Retry
	// crypto challenges. A victim with AnyRetry == false must emit
	// exactly zero Retry packets.
	AnyRetry bool
	AllRetry bool
	// Caps on the response-session anatomy, summed over events.
	MaxSpoofedClients int
	MaxClientPorts    int
	// AttackCap bounds how many Table 1 attacks this victim can yield.
	AttackCap int
	// Sanitized: the victim sits inside a research-scanner prefix, so
	// its packets are dropped before sessionization (no responder may
	// appear for it).
	Sanitized bool
	// Degraded: the address doubles as a misconfig responder, so the
	// packet count is a bound, not an exact value.
	Degraded    bool
	PacketRange Range // equals Exact(Packets) unless Degraded
}

// CommonVictimExpect is the per-victim prediction for TCP/ICMP floods.
type CommonVictimExpect struct {
	Events    int
	Packets   uint64 // exact
	AttackCap int
	// Sanitized: research-prefix victim; its sessions never reach the
	// common detector (the packets still count in Telescope.TCPICMP).
	Sanitized bool
}

// MisconfExpect is the per-responder prediction for misconfiguration
// noise.
type MisconfExpect struct {
	Visits      int
	Version     wire.Version
	WindowStart telescope.Timestamp // no packet may precede it
	Packets     Range               // visit clamps × visits
	AttackCap   int
}

// PhaseExpect groups predictions per scheduling label — one row per
// scenario phase (plus the paper schedule's fixed labels).
type PhaseExpect struct {
	Label    string
	Kind     string // research-scan, scan, flood, misconfig
	Events   int    // sweeps / bots / flood events / responders
	Victims  int    // distinct flood victims (flood phases)
	Packets  Range
	Arrivals uint64  // flood phases: spoofed arrivals
	AmpRatio float64 // flood phases: Packets / Arrivals
	Retry    bool    // flood phases: every event Retry-mitigated
	// Versions: flood events (or scan bots) per compiled wire version.
	Versions map[wire.Version]int
	// Measurable: the phase's source set is disjoint from every other
	// phase, so its packet prediction can be checked against measured
	// per-source sums. Response selects responders vs requesters.
	Measurable bool
	Response   bool
	Sources    map[netmodel.Addr]bool
}

// Expectation is the oracle's full prediction for one (seed, scale,
// scenario) triple. It is independent of worker count and of
// live-vs-replay execution.
type Expectation struct {
	Scenario     string
	Seed         uint64
	Scale        float64
	ResearchThin uint32

	// Research sweeps (exact).
	ResearchRecords uint64 // thinned records at the telescope
	ResearchPackets uint64 // weighted Figure 2 TUM+RWTH total
	// ResearchExtra: weighted packets of QUIC flood victims that sit
	// inside research prefixes (possible only via the "internet"
	// victim pool); they inflate the research series past the sweeps.
	ResearchExtra uint64

	// Scan waves.
	ScanBots    int // scheduled (address collisions included)
	ScanVisits  uint64
	ScanSources map[netmodel.Addr]bool

	// QUIC floods (exact).
	QUICEvents   int
	QUICPackets  uint64 // all victims, sanitized included
	QUICArrivals uint64
	Victims      map[netmodel.Addr]*VictimExpect

	// TCP/ICMP floods (exact).
	CommonEvents  int
	CommonPackets uint64
	CommonVictims map[netmodel.Addr]*CommonVictimExpect

	// Misconfiguration noise.
	MisconfScheduled int
	MisconfVisits    uint64
	Misconf          map[netmodel.Addr]*MisconfExpect

	// EventVersions counts QUIC flood events per compiled version —
	// the scheduled version mix the measured per-attack dominant
	// versions are drawn from.
	EventVersions map[wire.Version]int

	Phases []PhaseExpect

	// Collisions lists cross-role address overlaps (bot that is also a
	// victim, …). Each degrades the checks that depend on the clean
	// separation; built-in scenarios have none.
	Collisions []string

	// thresholds used for the attack caps (Moore et al. Table 1).
	Thresholds dosdetect.Thresholds
}

// Expect compiles the scenario's schedule (no packets are generated)
// and derives the full analytic prediction. A nil scenario means the
// paper's hard-coded month, exactly like quicsand.Config.Scenario.
func Expect(sc *scenario.Scenario, cfg ibr.Config) (*Expectation, error) {
	exp, _, err := expect(sc, cfg)
	return exp, err
}

// expect is Expect that also returns the scheduled generator, whose
// ledger ExpectAlerts reads too.
func expect(sc *scenario.Scenario, cfg ibr.Config) (*Expectation, *ibr.Generator, error) {
	cfg.RecordLedger = true
	g, err := scenario.Compile(sc, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	name := "paper-2021"
	if sc != nil {
		name = sc.Name
	}
	exp, err := fromLedger(name, cfg, g)
	return exp, g, err
}

// attackSessionMinPackets is the hard packet floor of one detected
// attack: strictly more than MinPackets datagrams AND a 1-minute slot
// above MinMaxPPS packets/s.
func attackSessionMinPackets(t dosdetect.Thresholds) uint64 {
	byCount := uint64(t.MinPackets + 1)
	byRate := uint64(t.MinMaxPPS*60) + 1 // maxPerMin must strictly exceed MinMaxPPS*60
	if byRate > byCount {
		return byRate
	}
	return byCount
}

// attackCap is the tolerance-free upper bound on Table 1 attacks one
// victim can yield from an exact packet budget and backscatter span:
// k attack sessions need k·minDur seconds separated by k−1 timeout
// gaps inside the span, and attackSessionMinPackets packets each.
func attackCap(t dosdetect.Thresholds, packets uint64, spanSec float64) int {
	if spanSec <= t.MinDuration {
		return 0
	}
	perAttack := attackSessionMinPackets(t)
	pktCap := packets / perAttack
	timeout := sessions.DefaultTimeout.Seconds()
	durCap := uint64((spanSec + timeout) / (t.MinDuration + timeout))
	if durCap < pktCap {
		return int(durCap)
	}
	return int(pktCap)
}

// fromLedger turns the recorded schedule into the Expectation.
func fromLedger(name string, cfg ibr.Config, g *ibr.Generator) (*Expectation, error) {
	led := g.Ledger
	if led == nil {
		return nil, fmt.Errorf("oracle: generator has no ledger")
	}
	exp := &Expectation{
		Scenario:      name,
		Seed:          cfg.Seed,
		Scale:         cfg.Scale,
		ResearchThin:  cfg.ResearchThin,
		ScanSources:   make(map[netmodel.Addr]bool),
		Victims:       make(map[netmodel.Addr]*VictimExpect),
		CommonVictims: make(map[netmodel.Addr]*CommonVictimExpect),
		Misconf:       make(map[netmodel.Addr]*MisconfExpect),
		EventVersions: make(map[wire.Version]int),
		Thresholds:    dosdetect.Default(),
	}
	in := g.Internet()
	phases := make(map[string]*PhaseExpect)
	var order []string
	phase := func(label, kind string, response bool) *PhaseExpect {
		p := phases[label]
		if p == nil {
			p = &PhaseExpect{
				Label: label, Kind: kind, Response: response,
				Versions: make(map[wire.Version]int),
				Sources:  make(map[netmodel.Addr]bool),
			}
			phases[label] = p
			order = append(order, label)
		}
		return p
	}

	for _, r := range led.Research {
		exp.ResearchRecords += r.Records
		exp.ResearchPackets += r.Records * uint64(r.Weight)
		p := phase(r.Label, ibr.KindResearchScan, false)
		p.Events++
		p.Packets = p.Packets.Add(Exact(r.Records * uint64(r.Weight)))
	}

	for _, b := range led.Bots {
		exp.ScanBots++
		exp.ScanVisits += uint64(b.Visits)
		exp.ScanSources[b.Src] = true
		p := phase(b.Label, ibr.KindScan, false)
		p.Events++
		p.Sources[b.Src] = true
		p.Packets = p.Packets.Add(Range{
			Min: uint64(b.Visits) * ibr.BotMinPacketsPerVisit,
			Max: uint64(b.Visits) * ibr.BotMaxPacketsPerVisit,
		})
		if b.Payload {
			p.Versions[b.Version]++
		}
	}

	for i := range led.Floods {
		f := &led.Floods[i]
		if f.Vector == ibr.VectorQUIC {
			exp.QUICEvents++
			exp.QUICPackets += f.Packets
			exp.QUICArrivals += f.Arrivals()
			exp.EventVersions[f.Version]++
			v := exp.Victims[f.Victim]
			if v == nil {
				v = &VictimExpect{
					Org:       f.Org,
					First:     f.First(),
					Last:      f.Last(),
					Versions:  make(map[wire.Version]bool),
					AllRetry:  true,
					Sanitized: in.IsResearchSource(f.Victim),
				}
				exp.Victims[f.Victim] = v
			}
			v.Events++
			v.Packets += f.Packets
			v.Arrivals += f.Arrivals()
			v.Versions[f.Version] = true
			v.AnyRetry = v.AnyRetry || f.RetryMitigated
			v.AllRetry = v.AllRetry && f.RetryMitigated
			v.MaxSpoofedClients += f.NAddrs
			v.MaxClientPorts += f.NPorts
			if first := f.First(); first < v.First {
				v.First = first
			}
			if last := f.Last(); last > v.Last {
				v.Last = last
			}
			p := phase(f.Label, ibr.KindFlood, true)
			p.Events++
			p.Packets = p.Packets.Add(Exact(f.Packets))
			p.Arrivals += f.Arrivals()
			p.Versions[f.Version]++
			p.Retry = (p.Events == 1 || p.Retry) && f.RetryMitigated
			p.Sources[f.Victim] = true
		} else {
			exp.CommonEvents++
			exp.CommonPackets += f.Packets
			cv := exp.CommonVictims[f.Victim]
			if cv == nil {
				cv = &CommonVictimExpect{Sanitized: in.IsResearchSource(f.Victim)}
				exp.CommonVictims[f.Victim] = cv
			}
			cv.Events++
			cv.Packets += f.Packets
			p := phase(f.Label, ibr.KindFlood, false)
			p.Events++
			p.Packets = p.Packets.Add(Exact(f.Packets))
			p.Arrivals += f.Arrivals()
			p.Sources[f.Victim] = true
		}
	}

	for _, m := range led.Misconfig {
		exp.MisconfScheduled++
		exp.MisconfVisits += uint64(m.Visits)
		me := exp.Misconf[m.Src]
		if me == nil {
			me = &MisconfExpect{Version: m.Version, WindowStart: ibr.TSAt(m.StartSec)}
			exp.Misconf[m.Src] = me
		}
		me.Visits += m.Visits
		if ws := ibr.TSAt(m.StartSec); ws < me.WindowStart {
			me.WindowStart = ws
		}
		p := phase(m.Label, ibr.KindMisconfig, true)
		p.Events++
		p.Sources[m.Src] = true
		p.Packets = p.Packets.Add(Range{
			Min: uint64(m.Visits) * ibr.MisconfMinPacketsPerVisit,
			Max: uint64(m.Visits) * ibr.MisconfMaxPacketsPerVisit,
		})
	}
	for _, me := range exp.Misconf {
		me.Packets = Range{
			Min: uint64(me.Visits) * ibr.MisconfMinPacketsPerVisit,
			Max: uint64(me.Visits) * ibr.MisconfMaxPacketsPerVisit,
		}
		me.AttackCap = int(me.Packets.Max / attackSessionMinPackets(exp.Thresholds))
	}

	// Finalize per-victim derived values and cross-role collisions.
	for addr, v := range exp.Victims {
		v.PacketRange = Exact(v.Packets)
		span := float64(v.Last-v.First) / 1000
		v.AttackCap = attackCap(exp.Thresholds, v.Packets, span)
		if v.Sanitized {
			exp.ResearchExtra += v.Packets
		}
		if me, dual := exp.Misconf[addr]; dual {
			v.Degraded = true
			v.PacketRange = Exact(v.Packets).Add(me.Packets)
			v.AttackCap = attackCap(exp.Thresholds, v.PacketRange.Max, ibr.MonthSeconds())
			exp.Collisions = append(exp.Collisions,
				fmt.Sprintf("victim %v doubles as a misconfig responder", addr))
		}
		if exp.ScanSources[addr] {
			exp.Collisions = append(exp.Collisions,
				fmt.Sprintf("victim %v doubles as a scan bot", addr))
		}
	}
	// Common-victim attack caps need the first/last event brackets.
	commonSpan := make(map[netmodel.Addr][2]telescope.Timestamp)
	for i := range led.Floods {
		f := &led.Floods[i]
		if f.Vector == ibr.VectorQUIC {
			continue
		}
		s := commonSpan[f.Victim]
		if s[0] == 0 || f.First() < s[0] {
			s[0] = f.First()
		}
		if f.Last() > s[1] {
			s[1] = f.Last()
		}
		commonSpan[f.Victim] = s
	}
	for addr, cv := range exp.CommonVictims {
		s := commonSpan[addr]
		cv.AttackCap = attackCap(exp.Thresholds, cv.Packets, float64(s[1]-s[0])/1000)
	}
	for addr := range exp.Misconf {
		if exp.ScanSources[addr] {
			exp.Collisions = append(exp.Collisions,
				fmt.Sprintf("misconfig responder %v doubles as a scan bot", addr))
		}
	}
	sort.Strings(exp.Collisions)

	// Phase measurability: a phase is checkable in isolation when its
	// source set overlaps no other phase (and carries no sanitized or
	// degraded source).
	owners := make(map[netmodel.Addr]int)
	for _, label := range order {
		for a := range phases[label].Sources {
			owners[a]++
		}
	}
	for _, label := range order {
		p := phases[label]
		p.Victims = 0
		if p.Kind == ibr.KindFlood {
			p.Victims = len(p.Sources)
			if p.Arrivals > 0 {
				p.AmpRatio = float64(p.Packets.Min) / float64(p.Arrivals)
			}
		}
		if p.Kind == ibr.KindResearchScan {
			exp.Phases = append(exp.Phases, *p)
			continue
		}
		measurable := len(p.Sources) > 0
		for a := range p.Sources {
			if owners[a] > 1 {
				measurable = false
				break
			}
			if v, ok := exp.Victims[a]; ok && (v.Sanitized || v.Degraded) {
				measurable = false
				break
			}
		}
		// Common-vector flood phases leave no per-source trace in the
		// analysis (the common detector drops excluded sessions).
		if p.Kind == ibr.KindFlood && !p.Response {
			measurable = false
		}
		p.Measurable = measurable
		exp.Phases = append(exp.Phases, *p)
	}
	return exp, nil
}

// DistinctQUICSources returns the exact number of distinct source
// addresses the sanitized QUIC stream contains: scan bots, non-research
// QUIC flood victims and misconfig responders (Figure 4's floor).
func (e *Expectation) DistinctQUICSources() int {
	seen := make(map[netmodel.Addr]bool, len(e.ScanSources)+len(e.Victims)+len(e.Misconf))
	for a := range e.ScanSources {
		seen[a] = true
	}
	for a, v := range e.Victims {
		if !v.Sanitized {
			seen[a] = true
		}
	}
	for a := range e.Misconf {
		seen[a] = true
	}
	return len(seen)
}

// RespondersExpected returns the exact number of distinct response
// sources: non-sanitized victims plus misconfig responders.
func (e *Expectation) RespondersExpected() int {
	seen := make(map[netmodel.Addr]bool, len(e.Victims)+len(e.Misconf))
	for a, v := range e.Victims {
		if !v.Sanitized {
			seen[a] = true
		}
	}
	for a := range e.Misconf {
		seen[a] = true
	}
	return len(seen)
}

// RequestPackets returns the tolerance-free bound on sanitized request
// packets (scan-bot visits × per-visit clamps).
func (e *Expectation) RequestPackets() Range {
	return Range{
		Min: e.ScanVisits * ibr.BotMinPacketsPerVisit,
		Max: e.ScanVisits * ibr.BotMaxPacketsPerVisit,
	}
}

// ResponsePackets returns the bound on sanitized response packets:
// exact flood backscatter plus misconfig visit clamps.
func (e *Expectation) ResponsePackets() Range {
	flood := uint64(0)
	for _, v := range e.Victims {
		if !v.Sanitized {
			flood += v.Packets
		}
	}
	return Exact(flood).Add(Range{
		Min: e.MisconfVisits * ibr.MisconfMinPacketsPerVisit,
		Max: e.MisconfVisits * ibr.MisconfMaxPacketsPerVisit,
	})
}

// UDP443Packets returns the bound on raw UDP/443 telescope records.
func (e *Expectation) UDP443Packets() Range {
	return Exact(e.ResearchRecords + e.QUICPackets).
		Add(e.RequestPackets()).
		Add(Range{
			Min: e.MisconfVisits * ibr.MisconfMinPacketsPerVisit,
			Max: e.MisconfVisits * ibr.MisconfMaxPacketsPerVisit,
		})
}

// TelescopePackets returns the bound on total telescope records.
func (e *Expectation) TelescopePackets() Range {
	return e.UDP443Packets().Add(Exact(e.CommonPackets))
}

// QUICAttackCap returns the tolerance-free ceiling on detected QUIC
// attacks (Table 1 thresholds) across victims and misconfig
// responders.
func (e *Expectation) QUICAttackCap() int {
	total := 0
	for _, v := range e.Victims {
		if !v.Sanitized {
			total += v.AttackCap
		}
	}
	for _, m := range e.Misconf {
		total += m.AttackCap
	}
	return total
}

// CommonAttackCap returns the ceiling on detected TCP/ICMP attacks.
func (e *Expectation) CommonAttackCap() int {
	total := 0
	for _, v := range e.CommonVictims {
		if !v.Sanitized {
			total += v.AttackCap
		}
	}
	return total
}

// CommonSessionBounds returns [distinct observable common victims,
// total common packets] — the bound on sessions the common detector
// inspects.
func (e *Expectation) CommonSessionBounds() Range {
	n := uint64(0)
	for _, v := range e.CommonVictims {
		if !v.Sanitized {
			n++
		}
	}
	return Range{Min: n, Max: e.CommonPackets}
}

// ResearchPacketRange returns the prediction for the weighted
// TUM+RWTH Figure 2 series: exact unless research-prefix flood victims
// pollute it.
func (e *Expectation) ResearchPacketRange() Range {
	return Range{Min: e.ResearchPackets, Max: e.ResearchPackets + e.ResearchExtra}
}
