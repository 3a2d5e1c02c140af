package oracle

// Cross-validation: Observed is the projection of a pipeline Analysis
// onto the oracle's schema (built by quicsand.(*Analysis).OracleObserved),
// Evaluate compares it against an Expectation and returns every check
// with its verdict, Check filters the violations. All checks are
// exact-or-bounded: a failure is a real defect (or a new collision
// class the oracle must learn), never statistical noise.

import (
	"fmt"
	"sort"
	"strings"

	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/report"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// ResponderObs aggregates one response-session source.
type ResponderObs struct {
	Sessions     int
	Packets      uint64
	RetryPackets uint64
	Start, End   telescope.Timestamp
	Versions     map[wire.Version]bool
}

// AttackObs is one detected QUIC attack.
type AttackObs struct {
	Victim         netmodel.Addr
	Packets        int
	DurationSec    float64
	MaxPPS         float64
	SpoofedClients int
	ClientPorts    int
	UniqueSCIDs    int
	Version        wire.Version
}

// Observed is everything the oracle validates, measured from one Run
// or Replay.
type Observed struct {
	TelescopeTotal      uint64
	UDP443              uint64
	TCPICMP             uint64
	ResearchPackets     uint64 // weighted TUM+RWTH Figure 2 total
	NonQUIC             uint64
	DistinctQUICSources int
	MixedSessions       int
	RequestSessions     int
	RequestPackets      uint64
	RequestSources      map[netmodel.Addr]uint64 // source → packets
	ResponseSessions    int
	ResponsePackets     uint64
	Responders          map[netmodel.Addr]*ResponderObs
	QUICAttacks         []AttackObs
	CommonAttacks       int
	CommonInspected     int
	// LostRecords is the salvage ledger's worst-case record loss
	// (telemetry SalvageMaxLost): the degraded-run error budget. Zero
	// — the norm — keeps every check exact; nonzero relaxes lower
	// bounds by the budget so a salvaged replay validates against what
	// provably survived (DESIGN.md §14).
	LostRecords uint64
}

// Result is one oracle check with its verdict. Exact states whether
// the prediction was zero-tolerance (vs a bounded interval). Detail
// marks a per-item row expanding a failed family — its family summary
// row already carries the verdict, so violation counts skip details.
type Result struct {
	Name   string `json:"name"`
	Want   string `json:"want"`
	Got    string `json:"got"`
	OK     bool   `json:"ok"`
	Exact  bool   `json:"exact"`
	Detail bool   `json:"detail,omitempty"`
}

// CountViolations returns the number of failed checks, counting a
// failed family (with however many detail rows) once.
func CountViolations(results []Result) int {
	n := 0
	for _, r := range results {
		if !r.OK && !r.Detail {
			n++
		}
	}
	return n
}

// Check evaluates and returns only the violations.
func Check(exp *Expectation, obs *Observed) []Result {
	var out []Result
	for _, r := range Evaluate(exp, obs) {
		if !r.OK {
			out = append(out, r)
		}
	}
	return out
}

// detailCap bounds per-item failure rows so a systematic breakage
// stays readable.
const detailCap = 8

// relaxRange lowers a prediction's floor by the degraded-run slack;
// the ceiling stands, because record loss never invents traffic.
func relaxRange(r Range, slack uint64) Range {
	if r.Min > slack {
		r.Min -= slack
	} else {
		r.Min = 0
	}
	return r
}

// group accumulates a per-item check family into one summary Result
// plus capped failure details.
type group struct {
	name          string
	total, failed int
	details       []Result
	exact         bool
}

func (g *group) fail(item, want, got string) {
	g.failed++
	if len(g.details) < detailCap {
		g.details = append(g.details, Result{
			Name: g.name + "[" + item + "]", Want: want, Got: got,
			Exact: g.exact, Detail: true,
		})
	}
}

func (g *group) flush(rs *[]Result) {
	kind := "bounded"
	if g.exact {
		kind = "exact"
	}
	*rs = append(*rs, Result{
		Name:  g.name,
		Want:  fmt.Sprintf("%d %s checks", g.total, kind),
		Got:   fmt.Sprintf("%d ok, %d violated", g.total-g.failed, g.failed),
		OK:    g.failed == 0,
		Exact: g.exact,
	})
	*rs = append(*rs, g.details...)
	if g.failed > len(g.details) {
		*rs = append(*rs, Result{
			Name: g.name + "[...]",
			Want: "", Got: fmt.Sprintf("+%d more violations", g.failed-len(g.details)),
			Exact: g.exact, Detail: true,
		})
	}
}

// Evaluate runs every oracle check. Results come most-aggregate first;
// per-item families contribute one summary row plus failure details.
func Evaluate(exp *Expectation, obs *Observed) []Result {
	var rs []Result
	exact := func(name string, want, got uint64) {
		rs = append(rs, Result{
			Name: name, Want: fmt.Sprint(want), Got: fmt.Sprint(got),
			OK: want == got, Exact: true,
		})
	}
	bounded := func(name string, want Range, got uint64) {
		rs = append(rs, Result{
			Name: name, Want: want.String(), Got: fmt.Sprint(got),
			OK: want.Contains(got), Exact: want.IsExact(),
		})
	}
	atMost := func(name string, cap int, got int) {
		rs = append(rs, Result{
			Name: name, Want: fmt.Sprintf("<= %d", cap), Got: fmt.Sprint(got),
			OK: got >= 0 && got <= cap,
		})
	}

	// Degraded-run error budget (DESIGN.md §14): each of the <= b
	// records lost inside salvaged spans can remove at most one packet
	// (weighted records up to ResearchThin telescope packets) from any
	// counter, so lower bounds relax by the budget while upper bounds
	// stand — loss never invents traffic. The budget applies marginally
	// per check: one lost record legitimately explains a one-packet
	// deficit in several derived counters at once.
	b := obs.LostRecords
	wb := b // weighted budget for research-thinned (Figure 2) counters
	if exp.ResearchThin > 1 {
		wb = b * uint64(exp.ResearchThin)
	}
	relax := relaxRange
	// exactD degrades an exact check into [want-slack, want] under a
	// nonzero budget.
	exactD := func(name string, want, got uint64, slack uint64) {
		if slack == 0 {
			exact(name, want, got)
			return
		}
		bounded(name, relax(Range{Min: want, Max: want}, slack), got)
	}
	if b > 0 {
		rs = append(rs, Result{
			Name: "salvage-budget", Want: "degraded run",
			Got: fmt.Sprintf("<= %d records lost", b), OK: true,
		})
	}

	// Cross-role collisions between scan bots and responders break the
	// request/response separation every session-level check leans on.
	botOverlap := false
	for _, c := range exp.Collisions {
		if strings.Contains(c, "scan bot") {
			botOverlap = true
		}
	}

	// Stream-level counters. The telescope/UDP443/TCP-ICMP totals count
	// raw records (weight-blind), so they relax by b; the Figure 2
	// research series and session packet sums count effective weights,
	// so a lost thinned record can cost up to ResearchThin — wb.
	bounded("research-packets", relax(exp.ResearchPacketRange(), wb), obs.ResearchPackets)
	exactD("tcp-icmp-packets", exp.CommonPackets, obs.TCPICMP, b)
	bounded("udp443-packets", relax(exp.UDP443Packets(), b), obs.UDP443)
	bounded("telescope-packets", relax(exp.TelescopePackets(), b), obs.TelescopeTotal)
	exact("non-quic", 0, obs.NonQUIC)
	exactD("distinct-quic-sources", uint64(exp.DistinctQUICSources()), uint64(obs.DistinctQUICSources), b)

	if !botOverlap {
		exact("mixed-sessions", 0, uint64(obs.MixedSessions))

		// Scan-wave coverage: the request-session source population is
		// exactly the scheduled bot set. Under a loss budget, up to b
		// single-visit sources may have vanished entirely; sources the
		// schedule never held can still not appear.
		srcs := &group{name: "request-sources", exact: b == 0}
		srcs.total = len(exp.ScanSources)
		missing := uint64(0)
		for a := range exp.ScanSources {
			if _, ok := obs.RequestSources[a]; !ok {
				missing++
				if missing > b {
					srcs.fail(a.String(), "requests observed", "source missing")
				}
			}
		}
		for a := range obs.RequestSources {
			if !exp.ScanSources[a] {
				srcs.total++
				srcs.fail(a.String(), "scheduled bot", "unscheduled request source")
			}
		}
		srcs.flush(&rs)

		bounded("request-packets", relax(exp.RequestPackets(), wb), obs.RequestPackets)
		bounded("response-packets", relax(exp.ResponsePackets(), b), obs.ResponsePackets)
		bounded("request-sessions", relax(Range{
			Min: uint64(len(exp.ScanSources)),
			Max: exp.RequestPackets().Max,
		}, b), uint64(obs.RequestSessions))
		bounded("response-sessions", relax(Range{
			Min: uint64(exp.RespondersExpected()),
			Max: exp.ResponsePackets().Max,
		}, b), uint64(obs.ResponseSessions))
		exactD("responders", uint64(exp.RespondersExpected()), uint64(len(obs.Responders)), b)

		evalResponders(exp, obs, &rs, b)
	}

	// Table 1 flood classification (bounded by the rate/duration caps).
	// Attack caps gain +b slack: a lost-record gap can split one flood
	// into multiple detected attacks.
	atMost("quic-attacks", exp.QUICAttackCap()+int(b), len(obs.QUICAttacks))
	evalAttacks(exp, obs, &rs, b)
	atMost("common-attacks", exp.CommonAttackCap()+int(b), obs.CommonAttacks)
	bounded("common-sessions", relax(exp.CommonSessionBounds(), b), uint64(obs.CommonInspected))

	// Per-phase attribution where source sets are disjoint.
	phases := &group{name: "phase-packets"}
	for i := range exp.Phases {
		p := &exp.Phases[i]
		if !p.Measurable {
			continue
		}
		phases.total++
		var sum uint64
		for a := range p.Sources {
			if p.Response {
				if r := obs.Responders[a]; r != nil {
					sum += r.Packets
				}
			} else {
				sum += obs.RequestSources[a]
			}
		}
		pr := relax(p.Packets, wb)
		if !pr.Contains(sum) {
			phases.fail(p.Label, pr.String(), fmt.Sprint(sum))
		}
	}
	if botOverlap {
		phases.total = 0 // per-source sums are unreliable under collisions
	} else {
		phases.flush(&rs)
	}
	return rs
}

// evalResponders runs the per-responder families: membership, exact
// packet volumes, bracket spans, version subsets, Retry volumes. A
// nonzero budget b (salvaged replay) relaxes per-victim packet floors,
// downgrades span equality to containment (edge records of a bracket
// may be lost), and tolerates responders whose relaxed floor reaches
// zero vanishing outright.
func evalResponders(exp *Expectation, obs *Observed, rs *[]Result, b uint64) {
	member := &group{name: "responder-known", exact: true}
	packets := &group{name: "victim-packets", exact: b == 0}
	spans := &group{name: "victim-span", exact: b == 0}
	versions := &group{name: "responder-versions", exact: true}
	retry := &group{name: "responder-retry"}
	sanitized := &group{name: "sanitized-victims", exact: true}
	misconf := &group{name: "misconf-window", exact: true}

	addrs := make([]netmodel.Addr, 0, len(obs.Responders))
	for a := range obs.Responders {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		r := obs.Responders[a]
		v := exp.Victims[a]
		me := exp.Misconf[a]
		member.total++
		switch {
		case v != nil && !v.Sanitized:
			packets.total++
			if pr := relaxRange(v.PacketRange, b); !pr.Contains(r.Packets) {
				packets.fail(a.String(), pr.String(), fmt.Sprint(r.Packets))
			}
			if !v.Degraded {
				spans.total++
				if b == 0 {
					if r.Start != v.First || r.End != v.Last {
						spans.fail(a.String(),
							fmt.Sprintf("[%d, %d]", v.First, v.Last),
							fmt.Sprintf("[%d, %d]", r.Start, r.End))
					}
				} else if r.Start < v.First || r.End > v.Last {
					// Lost records can shrink the observed bracket but
					// never widen it past the schedule.
					spans.fail(a.String(),
						fmt.Sprintf("within [%d, %d]", v.First, v.Last),
						fmt.Sprintf("[%d, %d]", r.Start, r.End))
				}
			}
			versions.total++
			for ver := range r.Versions {
				if !v.Versions[ver] && !(v.Degraded && me != nil && me.Version == ver) {
					versions.fail(a.String(), "compiled version set", "unscheduled "+ver.String())
				}
			}
			retry.total++
			if !v.AnyRetry && r.RetryPackets != 0 {
				retry.fail(a.String(), "0 Retry packets", fmt.Sprint(r.RetryPackets))
			} else if r.RetryPackets > r.Packets {
				retry.fail(a.String(), "<= total packets", fmt.Sprint(r.RetryPackets))
			}
		case me != nil:
			packets.total++
			if pr := relaxRange(me.Packets, b); !pr.Contains(r.Packets) {
				packets.fail(a.String(), pr.String(), fmt.Sprint(r.Packets))
			}
			misconf.total++
			if r.Start < me.WindowStart {
				misconf.fail(a.String(), fmt.Sprintf(">= %d", me.WindowStart), fmt.Sprint(r.Start))
			}
			versions.total++
			for ver := range r.Versions {
				if ver != me.Version {
					versions.fail(a.String(), me.Version.String(), "unscheduled "+ver.String())
				}
			}
			retry.total++
			if r.RetryPackets != 0 {
				retry.fail(a.String(), "0 Retry packets", fmt.Sprint(r.RetryPackets))
			}
		default:
			member.fail(a.String(), "scheduled victim or responder", "unscheduled response source")
		}
	}
	for a, v := range exp.Victims {
		if v.Sanitized {
			sanitized.total++
			if obs.Responders[a] != nil {
				sanitized.fail(a.String(), "sanitized away", "responder present")
			}
			continue
		}
		if obs.Responders[a] == nil {
			packets.total++
			// Under a loss budget, a responder whose relaxed floor
			// reaches zero may have vanished entirely with the damaged
			// span.
			if pr := relaxRange(v.PacketRange, b); pr.Min > 0 {
				packets.fail(a.String(), pr.String(), "no responder")
			}
		}
	}
	for a, me := range exp.Misconf {
		if _, isVictim := exp.Victims[a]; isVictim {
			continue
		}
		if obs.Responders[a] == nil {
			packets.total++
			if pr := relaxRange(me.Packets, b); pr.Min > 0 {
				packets.fail(a.String(), pr.String(), "no responder")
			}
		}
	}

	member.flush(rs)
	packets.flush(rs)
	spans.flush(rs)
	versions.flush(rs)
	retry.flush(rs)
	sanitized.flush(rs)
	misconf.flush(rs)
}

// evalAttacks validates every detected attack against its victim's
// schedule-derived anatomy caps. The per-victim attack-count limit
// gains +b slack under a loss budget (a gap can split one flood into
// several detections); the anatomy upper bounds stand, since loss
// never inflates a single attack.
func evalAttacks(exp *Expectation, obs *Observed, rs *[]Result, b uint64) {
	g := &group{name: "attack-anatomy"}
	perVictim := make(map[netmodel.Addr]int)
	for i := range obs.QUICAttacks {
		atk := &obs.QUICAttacks[i]
		g.total++
		perVictim[atk.Victim]++
		v := exp.Victims[atk.Victim]
		me := exp.Misconf[atk.Victim]
		switch {
		case v != nil && !v.Sanitized:
			if uint64(atk.Packets) > v.PacketRange.Max {
				g.fail(atk.Victim.String(), fmt.Sprintf("<= %d pkts", v.PacketRange.Max), fmt.Sprint(atk.Packets))
			}
			if atk.SpoofedClients > v.MaxSpoofedClients {
				g.fail(atk.Victim.String(), fmt.Sprintf("<= %d clients", v.MaxSpoofedClients), fmt.Sprint(atk.SpoofedClients))
			}
			if atk.ClientPorts > v.MaxClientPorts {
				g.fail(atk.Victim.String(), fmt.Sprintf("<= %d ports", v.MaxClientPorts), fmt.Sprint(atk.ClientPorts))
			}
			if atk.Version != 0 && !v.Versions[atk.Version] && !(v.Degraded && me != nil && me.Version == atk.Version) {
				g.fail(atk.Victim.String(), "compiled version set", "dominant "+atk.Version.String())
			}
		case me != nil:
			if uint64(atk.Packets) > me.Packets.Max {
				g.fail(atk.Victim.String(), fmt.Sprintf("<= %d pkts", me.Packets.Max), fmt.Sprint(atk.Packets))
			}
			if atk.Version != 0 && atk.Version != me.Version {
				g.fail(atk.Victim.String(), me.Version.String(), "dominant "+atk.Version.String())
			}
		default:
			g.fail(atk.Victim.String(), "scheduled victim or responder", "attack on unscheduled source")
		}
	}
	caps := &group{name: "attacks-per-victim"}
	for a, n := range perVictim {
		caps.total++
		limit := 0
		if v := exp.Victims[a]; v != nil && !v.Sanitized {
			limit = v.AttackCap
			if me := exp.Misconf[a]; me != nil {
				limit += me.AttackCap
			}
		} else if me := exp.Misconf[a]; me != nil {
			limit = me.AttackCap
		}
		limit += int(b)
		if n > limit {
			caps.fail(a.String(), fmt.Sprintf("<= %d attacks", limit), fmt.Sprint(n))
		}
	}
	g.flush(rs)
	caps.flush(rs)
}

// phaseTable renders the per-phase schedule prediction: event loads,
// packet volumes (exact for floods), amplification ratios, Retry
// mitigation and the compiled version mix per phase.
func phaseTable(exp *Expectation) string {
	if len(exp.Phases) == 0 {
		return ""
	}
	var rows [][]string
	for i := range exp.Phases {
		p := &exp.Phases[i]
		extra := ""
		if p.Kind == ibr.KindFlood {
			extra = fmt.Sprintf("%d victims, x%.2f amp", p.Victims, p.AmpRatio)
			if p.Retry {
				extra += ", retry"
			}
		}
		rows = append(rows, []string{
			p.Label, p.Kind, fmt.Sprint(p.Events), p.Packets.String(),
			versionMixString(p.Versions), extra,
		})
	}
	return report.Table(
		[]string{"phase", "kind", "events", "packets", "version mix", "notes"}, rows)
}

// versionMixString renders a version histogram as stable
// "version:count" pairs (the scheduled mix measured dominant versions
// must be drawn from; Expectation.EventVersions aggregates it over
// all flood phases).
func versionMixString(m map[wire.Version]int) string {
	if len(m) == 0 {
		return "-"
	}
	versions := make([]wire.Version, 0, len(m))
	for v := range m {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	parts := make([]string, 0, len(versions))
	for _, v := range versions {
		parts = append(parts, fmt.Sprintf("%s:%d", v, m[v]))
	}
	return strings.Join(parts, " ")
}

// Report renders an evaluation as an expected-vs-observed table
// (internal/report) with a one-line verdict.
func Report(exp *Expectation, results []Result) string {
	var rows [][]string
	for _, r := range results {
		status := "ok"
		if !r.OK {
			status = "VIOLATED"
		}
		kind := "bounded"
		if r.Exact {
			kind = "exact"
		}
		rows = append(rows, []string{r.Name, kind, r.Want, r.Got, status})
	}
	violations := CountViolations(results)
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %s (seed %d, scale %g)\n", exp.Scenario, exp.Seed, exp.Scale)
	b.WriteString(phaseTable(exp))
	if len(exp.EventVersions) > 0 {
		fmt.Fprintf(&b, "scheduled QUIC flood version mix: %s\n", versionMixString(exp.EventVersions))
	}
	b.WriteString(report.Table([]string{"check", "class", "expected", "observed", "status"}, rows))
	if len(exp.Collisions) > 0 {
		fmt.Fprintf(&b, "degraded: %s\n", strings.Join(exp.Collisions, "; "))
	}
	if violations == 0 {
		b.WriteString("verdict: all oracle checks hold\n")
	} else {
		fmt.Fprintf(&b, "verdict: %d VIOLATED checks\n", violations)
	}
	return b.String()
}
