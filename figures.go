package quicsand

import (
	"encoding/json"
	"fmt"
	"strings"

	"quicsand/internal/correlate"
	"quicsand/internal/dosdetect"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/report"
	"quicsand/internal/stats"
	"quicsand/internal/wire"
)

// headlineStats are the §5.1 aggregates Headline and HeadlineJSON
// share — computed in one place so the text and JSON views cannot
// drift apart (the replay round-trip check diffs the JSON form).
type headlineStats struct {
	total, research uint64
	reqPk, respPk   int
}

func (a *Analysis) headlineStats() headlineStats {
	var h headlineStats
	h.research = a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans")
	h.total = h.research + a.HourlySource.TotalOf("Other")
	for _, s := range a.RequestSessions {
		h.reqPk += s.Packets
	}
	for _, s := range a.ResponseSessions {
		h.respPk += s.Packets
	}
	return h
}

// Headline renders the §5.1 overview numbers.
func (a *Analysis) Headline() string {
	var b strings.Builder
	if sc := a.Config.Scenario; sc != nil {
		fmt.Fprintf(&b, "scenario:                     %s\n", sc.Name)
	}
	hs := a.headlineStats()
	total, research, reqPk, respPk := hs.total, hs.research, hs.reqPk, hs.respPk
	fmt.Fprintf(&b, "QUIC packets captured:        %s\n", report.Count(total))
	if total > 0 {
		fmt.Fprintf(&b, "research scanner share:       %s (paper: 98.5%%)\n", report.Percent(float64(research)/float64(total)*100))
	}
	san := reqPk + respPk
	if san > 0 {
		fmt.Fprintf(&b, "sanitized requests/responses: %s / %s (paper: 15%% / 85%%)\n",
			report.Percent(float64(reqPk)/float64(san)*100), report.Percent(float64(respPk)/float64(san)*100))
	}
	fmt.Fprintf(&b, "request-only sessions:        %s (paper: 18k, avg 11 pkts)\n", report.Count(uint64(len(a.RequestSessions))))
	if n := len(a.RequestSessions); n > 0 {
		fmt.Fprintf(&b, "  avg packets/session:        %.1f\n", float64(reqPk)/float64(n))
	}
	fmt.Fprintf(&b, "response-only sessions:       %s (paper: 26k, avg 44 pkts)\n", report.Count(uint64(len(a.ResponseSessions))))
	if n := len(a.ResponseSessions); n > 0 {
		fmt.Fprintf(&b, "  avg packets/session:        %.1f\n", float64(respPk)/float64(n))
	}
	fmt.Fprintf(&b, "QUIC attacks (Moore w=1):     %s (paper: 2905, 11%% of responses)\n", report.Count(uint64(len(a.QUICDetector.Attacks))))
	if a.QUICDetector.Inspected > 0 {
		fmt.Fprintf(&b, "  share of response sessions: %s\n",
			report.Percent(float64(len(a.QUICDetector.Attacks))/float64(a.QUICDetector.Inspected)*100))
	}
	fmt.Fprintf(&b, "unique victims:               %s (paper: 394)\n", report.Count(uint64(len(a.Victims()))))
	fmt.Fprintf(&b, "TCP/ICMP attacks:             %s (paper: 282k)\n", report.Count(uint64(len(a.CommonDetector.Attacks))))
	fmt.Fprintf(&b, "victims in active-scan set:   %s (paper: 98%%)\n", report.Percent(a.KnownShare(a.Victims())))
	fmt.Fprintf(&b, "attacks on Google/Facebook:   %s / %s (paper: 58%% / 25%%)\n",
		report.Percent(a.OrgShare("Google")), report.Percent(a.OrgShare("Facebook")))
	return b.String()
}

// HeadlineJSON renders the §5.1 headline numbers as one JSON object —
// the machine-diffable form the replay round-trip check compares
// (scripts/replay_roundtrip.sh). Field order and float rendering are
// deterministic, so equal analyses produce byte-equal documents.
func (a *Analysis) HeadlineJSON() string {
	hs := a.headlineStats()
	scName := ""
	if a.Config.Scenario != nil {
		scName = a.Config.Scenario.Name
	}
	// Replay provenance: present only on replayed runs. The ingest
	// fields sit before every always-present field so stripping their
	// lines yields a document byte-identical to the live run's —
	// scripts/replay_roundtrip.sh and expectSameAnalysis rely on this.
	var ingestFormat string
	var ingestRecords uint64
	if a.Telemetry != nil {
		ingestFormat = a.Telemetry.Ingest.Format
		ingestRecords = a.Telemetry.Ingest.Records
	}
	doc := struct {
		Scenario         string `json:"scenario,omitempty"`
		IngestFormat     string `json:"ingest_format,omitempty"`
		IngestRecords    uint64 `json:"ingest_records,omitempty"`
		TelescopePackets uint64 `json:"telescope_packets"`
		QUICPackets      uint64 `json:"quic_packets"`
		ResearchPackets  uint64 `json:"research_packets"`
		NonQUIC          uint64 `json:"non_quic"`
		RequestSessions  int    `json:"request_sessions"`
		ResponseSessions int    `json:"response_sessions"`
		RequestPackets   int    `json:"request_packets"`
		ResponsePackets  int    `json:"response_packets"`
		QUICAttacks      int    `json:"quic_attacks"`
		UniqueVictims    int    `json:"unique_victims"`
		CommonAttacks    int    `json:"common_attacks"`
		SweepSessions5m  uint64 `json:"sweep_sessions_5m"`
	}{
		Scenario:         scName,
		IngestFormat:     ingestFormat,
		IngestRecords:    ingestRecords,
		TelescopePackets: a.Telescope.Total,
		QUICPackets:      hs.total,
		ResearchPackets:  hs.research,
		NonQUIC:          a.NonQUIC,
		RequestSessions:  len(a.RequestSessions),
		ResponseSessions: len(a.ResponseSessions),
		RequestPackets:   hs.reqPk,
		ResponsePackets:  hs.respPk,
		QUICAttacks:      len(a.QUICDetector.Attacks),
		UniqueVictims:    len(a.Victims()),
		CommonAttacks:    len(a.CommonDetector.Attacks),
		SweepSessions5m:  a.Sweep.Sessions(5),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil { // a flat struct of integers cannot fail to marshal
		return fmt.Sprintf("{\"error\": %q}", err.Error())
	}
	return string(b)
}

// HeadlineMetrics returns the §5.1 headline numbers as an ordered
// name/value list — the machine-comparable form `quicsand compare`
// diffs between two scenarios (report.DiffMetrics). It is derived by
// decoding HeadlineJSON's (flat) document token by token, so the two
// views cannot drift apart: a stat added there automatically joins the
// diff. Only the scenario name is dropped — two different scenarios
// would otherwise always "differ".
func (a *Analysis) HeadlineMetrics() []report.Metric {
	dec := json.NewDecoder(strings.NewReader(a.HeadlineJSON()))
	dec.UseNumber()
	if _, err := dec.Token(); err != nil { // opening brace
		return nil
	}
	var out []report.Metric
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return out
		}
		valTok, err := dec.Token()
		if err != nil {
			return out
		}
		key, ok := keyTok.(string)
		if !ok || key == "scenario" || strings.HasPrefix(key, "ingest_") {
			// Replay provenance would make live-vs-replay comparisons of
			// identical analyses always "differ", like the scenario name.
			continue
		}
		out = append(out, report.Metric{Name: key, Value: fmt.Sprint(valTok)})
	}
	return out
}

// Figure2 renders hourly QUIC packet counts by source family.
func (a *Analysis) Figure2() string {
	var b strings.Builder
	b.WriteString("Figure 2: QUIC traffic at the telescope (packets/hour, log sparkline over April 2021)\n")
	for _, label := range []string{"TUM-Scans", "RWTH-Scans", "Other"} {
		series := a.HourlySource.Series[label]
		fmt.Fprintf(&b, "%-11s |%s| total %s\n", label,
			report.Sparkline(series, 72, true), report.Count(a.HourlySource.TotalOf(label)))
	}
	return b.String()
}

// Figure3 renders sanitized requests vs responses per hour.
func (a *Analysis) Figure3() string {
	var b strings.Builder
	b.WriteString("Figure 3: sanitized QUIC packets by type (log sparkline; requests diurnal, responses erratic)\n")
	for _, label := range []string{"Requests", "Responses"} {
		fmt.Fprintf(&b, "%-10s |%s| total %s\n", label,
			report.Sparkline(a.HourlyType.Series[label], 72, true), report.Count(a.HourlyType.TotalOf(label)))
	}
	// Representative-day insert: average request count per hour of day.
	if req := a.HourlyType.Series["Requests"]; req != nil {
		var byHour [24]float64
		for h, v := range req {
			byHour[h%24] += float64(v)
		}
		peakAM, peakPM, trough := byHour[6], byHour[18], byHour[0]
		fmt.Fprintf(&b, "diurnal check: 06:00=%.0f 18:00=%.0f 00:00=%.0f (peaks at 06:00/18:00 UTC expected)\n",
			peakAM, peakPM, trough)
	}
	return b.String()
}

// Figure4 renders the session-count vs timeout sweep.
func (a *Analysis) Figure4() string {
	var b strings.Builder
	b.WriteString("Figure 4: sessions vs inactivity timeout (knee at 5 minutes)\n")
	labels := []string{}
	values := []float64{}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 45, 60} {
		labels = append(labels, fmt.Sprintf("%2d min", m))
		values = append(values, float64(a.Sweep.Sessions(m)))
	}
	b.WriteString(report.BarChart(labels, values, 48))
	fmt.Fprintf(&b, "lower bound (timeout=∞, unique IPs): %s (paper: 11,817)\n", report.Count(a.Sweep.LowerBound()))
	fmt.Fprintf(&b, "chosen threshold: 5 minutes → %s sessions\n", report.Count(a.Sweep.Sessions(5)))
	return b.String()
}

// Figure5 renders the source-network-type matrix.
func (a *Analysis) Figure5() string {
	m := a.TypeMatrix()
	var rows [][]string
	for _, t := range netmodel.AllNetworkTypes {
		e := m[t]
		rows = append(rows, []string{t.String(), report.Count(uint64(e[0])), report.Count(uint64(e[1]))})
	}
	return "Figure 5: source network types of sessions (PeeringDB join)\n" +
		report.Table([]string{"Source ASN Type", "Requests only", "Responses only"}, rows) +
		"(paper: requests from eyeballs, responses almost exclusively from content)\n"
}

// Figure6 renders the attacks-per-victim CDF.
func (a *Analysis) Figure6() string {
	counts := dosdetect.VictimCounts(a.QUICDetector.Attacks)
	var samples []float64
	for _, n := range counts {
		samples = append(samples, float64(n))
	}
	e := stats.NewECDF(samples)
	var b strings.Builder
	b.WriteString("Figure 6: CDF of attacks per QUIC victim\n")
	b.WriteString(report.CDFPlot("", "attacks per victim", []report.CDFSeries{seriesOf("victims", e)}))
	fmt.Fprintf(&b, "victims attacked exactly once: %s (paper: >50%%)\n", report.Percent(e.At(1)*100))
	fmt.Fprintf(&b, "most-attacked victim: %.0f attacks (paper: ≈300)\n", e.Max())
	return b.String()
}

func seriesOf(name string, e *stats.ECDF) report.CDFSeries {
	xs := make([]float64, 0, e.N())
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		xs = append(xs, e.Quantile(q))
	}
	// CDFPlot indexes sorted sample arrays; feed quantile landmarks.
	return report.CDFSeries{Name: name, Xs: xs}
}

// Figure7 renders duration and intensity CDFs, QUIC vs TCP/ICMP.
func (a *Analysis) Figure7() string {
	var b strings.Builder
	qd := stats.NewECDF(a.AttackDurations(dosdetect.VectorQUIC))
	cd := stats.NewECDF(a.AttackDurations(dosdetect.VectorCommon))
	b.WriteString("Figure 7(a): flood durations [s]\n")
	b.WriteString(report.CDFPlot("", "seconds", []report.CDFSeries{
		seriesOf("QUIC", qd), seriesOf("TCP/ICMP", cd),
	}))
	fmt.Fprintf(&b, "median durations: QUIC %.0f s vs TCP/ICMP %.0f s (paper: 255 vs 1499)\n\n", qd.Median(), cd.Median())

	qi := stats.NewECDF(a.AttackIntensities(dosdetect.VectorQUIC))
	ci := stats.NewECDF(a.AttackIntensities(dosdetect.VectorCommon))
	b.WriteString("Figure 7(b): flood intensities [max pps]\n")
	b.WriteString(report.CDFPlot("", "max pps", []report.CDFSeries{
		seriesOf("QUIC", qi), seriesOf("TCP/ICMP", ci),
	}))
	fmt.Fprintf(&b, "median intensities: QUIC %.2f vs TCP/ICMP %.2f max pps (paper: ≈1 both)\n", qi.Median(), ci.Median())
	fmt.Fprintf(&b, "Internet-wide rate estimate: ×512 telescope factor → median ≈ %.0f pps\n", qi.Median()*512)
	return b.String()
}

// Figure8 renders the multi-vector share bar.
func (a *Analysis) Figure8() string {
	c, s, q := a.Correlation.Shares()
	var b strings.Builder
	b.WriteString("Figure 8: multi-vector attacks — share of QUIC attack sessions\n")
	b.WriteString(report.BarChart(
		[]string{"Concurrent Attack", "Sequential Attack", "QUIC-only"},
		[]float64{c, s, q}, 50))
	fmt.Fprintf(&b, "(paper: 51%% / 40%% / 9%%)\n")
	return b.String()
}

// Figure9 renders the per-provider attack anatomy comparison.
func (a *Analysis) Figure9() string {
	type agg struct {
		n                                     int
		scids, addrs, ports, dur, pps, pkts   float64
		scidsMax, addrsMax, portsMax, pktsMax float64
		versions                              map[wire.Version]int
	}
	byOrg := map[string]*agg{}
	for _, atk := range a.QUICDetector.Attacks {
		org := a.OrgOf(atk.Victim)
		if org != "Google" && org != "Facebook" {
			continue
		}
		g := byOrg[org]
		if g == nil {
			g = &agg{versions: map[wire.Version]int{}}
			byOrg[org] = g
		}
		g.n++
		g.scids += float64(atk.UniqueSCIDs)
		g.addrs += float64(atk.SpoofedClients)
		g.ports += float64(atk.ClientPorts)
		g.dur += atk.Duration()
		g.pps += atk.MaxPPS
		g.pkts += float64(atk.Packets)
		g.scidsMax = maxF(g.scidsMax, float64(atk.UniqueSCIDs))
		g.addrsMax = maxF(g.addrsMax, float64(atk.SpoofedClients))
		g.portsMax = maxF(g.portsMax, float64(atk.ClientPorts))
		g.pktsMax = maxF(g.pktsMax, float64(atk.Packets))
		g.versions[atk.Version]++
	}
	var rows [][]string
	for _, org := range []string{"Facebook", "Google"} {
		g := byOrg[org]
		if g == nil || g.n == 0 {
			rows = append(rows, []string{org, "0", "-", "-", "-", "-", "-", "-", "-"})
			continue
		}
		n := float64(g.n)
		domV, domN := wire.Version(0), 0
		for v, c := range g.versions {
			if c > domN || (c == domN && v < domV) {
				domV, domN = v, c
			}
		}
		rows = append(rows, []string{
			org, fmt.Sprint(g.n),
			fmt.Sprintf("%.1f", g.addrs/n),
			fmt.Sprintf("%.1f", g.scids/n),
			fmt.Sprintf("%.1f", g.ports/n),
			fmt.Sprintf("%.0f", g.dur/n),
			fmt.Sprintf("%.2f", g.pps/n),
			fmt.Sprintf("%.0f", g.pkts/n),
			fmt.Sprintf("%s (%s)", domV, report.Percent(float64(domN)/n*100)),
		})
	}
	return "Figure 9: attack anatomy per content provider (means per attack)\n" +
		report.Table([]string{"Provider", "Attacks", "SpoofedClients", "UniqueSCIDs", "ClientPorts", "Dur[s]", "Max pps", "Packets", "Dominant version"}, rows) +
		"(paper: Google more SCIDs despite fewer packets; mvfst-draft-27 95% FB, draft-29 78% Google)\n"
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// figure10Weights are the threshold weights Figure 10 sweeps.
var figure10Weights = []float64{0.2, 0.5, 1, 2, 4, 6, 8, 10}

// Figure10 renders the threshold-weight sweep.
func (a *Analysis) Figure10() string {
	counts, shares := dosdetect.WeightSweep(a.ResponseSessions, figure10Weights, func(v netmodel.Addr) bool {
		org := a.OrgOf(v)
		return org == "Google" || org == "Facebook"
	})
	var rows [][]string
	for i, w := range figure10Weights {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", w),
			report.Count(uint64(counts[i])),
			report.Percent(shares[i]),
		})
	}
	return "Figure 10: DoS threshold weight sweep (Appendix B)\n" +
		report.Table([]string{"Weight w", "QUIC attacks", "Share FB+Google"}, rows) +
		"(paper: 1101/130/36/14/5 attacks at w=2/4/6/8/10; share stays high)\n"
}

// Figure11 renders the busiest multi-vector victim's timeline.
func (a *Analysis) Figure11() string {
	victim, ok := correlate.BusiestMultiVectorVictim(a.QUICDetector.Attacks, a.CommonDetector.Attacks)
	if !ok {
		return "Figure 11: no multi-vector victim found\n"
	}
	tl := correlate.Timeline(victim, a.QUICDetector.Attacks, a.CommonDetector.Attacks, 0)
	var rows [][]string
	origin := tl[0].Start
	for _, e := range tl {
		rows = append(rows, []string{
			e.Vector.String(),
			fmt.Sprintf("+%.0fs", e.Start-origin),
			fmt.Sprintf("+%.0fs", e.End-origin),
			fmt.Sprintf("%.0fs", e.End-e.Start),
		})
	}
	return fmt.Sprintf("Figure 11: attack timeline for victim %v (%s)\n", victim, a.OrgOf(victim)) +
		report.Table([]string{"Vector", "Start", "Stop", "Duration"}, rows)
}

// Figure12 renders the concurrent-attack overlap CDF.
func (a *Analysis) Figure12() string {
	e := stats.NewECDF(a.Correlation.OverlapShares())
	var b strings.Builder
	b.WriteString("Figure 12: time overlap of concurrent QUIC attacks with TCP/ICMP attacks [%]\n")
	b.WriteString(report.CDFPlot("", "overlap %", []report.CDFSeries{seriesOf(
		fmt.Sprintf("concurrent (n=%d)", e.N()), e)}))
	full := 0
	for _, v := range a.Correlation.OverlapShares() {
		if v >= 99.999 {
			full++
		}
	}
	if e.N() > 0 {
		fmt.Fprintf(&b, "fully overlapped: %s (paper: ~75%%), mean overlap %.1f%% (paper: 95%%)\n",
			report.Percent(float64(full)/float64(e.N())*100), e.Mean())
	}
	return b.String()
}

// Figure13 renders the sequential-attack gap CDF.
func (a *Analysis) Figure13() string {
	gaps := a.Correlation.SequentialGaps()
	e := stats.NewECDF(gaps)
	var b strings.Builder
	b.WriteString("Figure 13: distance of sequential QUIC attacks to nearest TCP/ICMP attack [s]\n")
	b.WriteString(report.CDFPlot("", "seconds (minute=60, hour=3600, day=86400)", []report.CDFSeries{
		seriesOf(fmt.Sprintf("sequential (n=%d)", e.N()), e)}))
	over1h := 0
	for _, g := range gaps {
		if g > 3600 {
			over1h++
		}
	}
	if e.N() > 0 {
		fmt.Fprintf(&b, "gaps above one hour: %s (paper: 82%%); mean gap %.1f h (paper: 36 h); max %.1f d (paper: ≤28 d)\n",
			report.Percent(float64(over1h)/float64(e.N())*100), e.Mean()/3600, e.Max()/86400)
	}
	return b.String()
}

// Section6 renders the discussion-section measurements (message mix,
// GreyNoise join, Appendix B excluded profile).
func (a *Analysis) Section6() string {
	var b strings.Builder
	ini, hs, other := a.MessageMix()
	fmt.Fprintf(&b, "attack backscatter message mix: Initial %s, Handshake %s, other %s (paper: 31%% / 57%% / 12%%)\n",
		report.Percent(ini), report.Percent(hs), report.Percent(other))
	pk, dur, pps := a.ExcludedProfile()
	fmt.Fprintf(&b, "excluded response sessions: median %.0f pkts, %.0f s, %.2f max pps (paper: 11 pkts, 7 s, 0.18)\n", pk, dur, pps)
	fmt.Fprintf(&b, "GreyNoise join over %d scan sources: benign %d, malicious %s, unknown %d (paper: 0 benign, 2.3%% known bots)\n",
		a.ScanSources.Total, a.ScanSources.Benign, report.Percent(a.ScanSources.MaliciousShare()), a.ScanSources.Unknown)
	fmt.Fprintf(&b, "top origin countries: ")
	for i, c := range a.ScanSources.TopCountries(3) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Country, report.Percent(c.Share))
	}
	b.WriteString(" (paper: BD 34%, US 27%, DZ 8%)\n")
	return b.String()
}

// ScenarioInfo renders the workload description of a scenario-driven
// run: the phase list with its windows and the schedule-derived ground
// truth the packet-level figures are measured against.
func (a *Analysis) ScenarioInfo() string {
	sc := a.Config.Scenario
	if sc == nil {
		return "scenario: none (paper-2021 hard-coded schedule)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", sc.Name)
	if sc.Description != "" {
		fmt.Fprintf(&b, "  %s\n", sc.Description)
	}
	if sc.Paper {
		b.WriteString("  (paper-2021 hard-coded schedule)\n")
	}
	var rows [][]string
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		name := ph.Label
		if name == "" {
			name = ph.Kind
		}
		start, dur := ph.Window()
		var load string
		switch ph.Kind {
		case ibr.KindResearchScan:
			load = fmt.Sprintf("%d sweeps", ph.Sweeps)
		case ibr.KindScan:
			load = fmt.Sprintf("%d bots", ph.Sources)
		case ibr.KindFlood:
			load = fmt.Sprintf("%d %s attacks / %d victims", ph.Attacks, ph.Vector, ph.Victims.Size)
			if ph.RetryMitigation {
				load += " (retry-mitigated)"
			}
			if ph.Pair != nil {
				load += " (paired)"
			}
		case ibr.KindMisconfig:
			load = fmt.Sprintf("%d responders", ph.Sources)
		}
		rows = append(rows, []string{
			fmt.Sprint(i), name, ph.Kind,
			fmt.Sprintf("day %.1f +%.1fd", start/86400, dur/86400),
			load,
		})
	}
	if len(rows) > 0 {
		b.WriteString(report.Table([]string{"#", "Phase", "Kind", "Window", "Load (at scale 1)"}, rows))
	}
	if t := a.Truth; t != nil {
		fmt.Fprintf(&b, "scheduled ground truth: %d QUIC attacks on %d victims, %d TCP/ICMP attacks, %d bots, %d responders\n",
			t.QUICAttacks, len(t.QUICVictims), t.CommonAttacks, len(t.BotAddrs), t.MisconfSources)
	}
	return b.String()
}

// RenderAll produces the complete report.
func (a *Analysis) RenderAll() string {
	var sections []string
	if a.Config.Scenario != nil {
		sections = append(sections, "=== Scenario ===", a.ScenarioInfo())
	}
	sections = append(sections,
		"=== Headline (§5.1) ===", a.Headline(),
		"=== Figure 2 ===", a.Figure2(),
		"=== Figure 3 ===", a.Figure3(),
		"=== Figure 4 ===", a.Figure4(),
		"=== Figure 5 ===", a.Figure5(),
		"=== Figure 6 ===", a.Figure6(),
		"=== Figure 7 ===", a.Figure7(),
		"=== Figure 8 ===", a.Figure8(),
		"=== Figure 9 ===", a.Figure9(),
		"=== Figure 10 ===", a.Figure10(),
		"=== Figure 11 ===", a.Figure11(),
		"=== Figure 12 ===", a.Figure12(),
		"=== Figure 13 ===", a.Figure13(),
		"=== Section 6 ===", a.Section6(),
	)
	return strings.Join(sections, "\n")
}
