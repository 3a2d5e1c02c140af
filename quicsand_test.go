package quicsand

import (
	"strings"
	"testing"

	"quicsand/internal/activescan"
	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/stats"
)

// netAddr aliases the registry address type for test readability.
type netAddr = netmodel.Addr

func typeEyeball() netmodel.NetworkType { return netmodel.TypeEyeball }
func typeContent() netmodel.NetworkType { return netmodel.TypeContent }

// runPipeline executes a shared moderate-scale run once; the shape
// assertions below all read from it. Scale 0.05 keeps the run around a
// second while preserving every distributional property.
var shared *Analysis

func pipeline(t *testing.T) *Analysis {
	t.Helper()
	if shared == nil {
		a, err := Run(Config{Seed: 2021, Scale: 0.05, ResearchThin: 8192})
		if err != nil {
			t.Fatal(err)
		}
		shared = a
	}
	return shared
}

// TestAnalysisCensusJoin pins the census join a held Analysis keeps in
// place of the census: for every response-session source (every attack
// victim among them) OrgOf and census membership are the census's own
// answers, and the join holds nothing else.
func TestAnalysisCensusJoin(t *testing.T) {
	a := pipeline(t)
	census := activescan.Build(netmodel.BuildInternet(), netmodel.NewRNG(a.Config.Seed).Fork("census"), activescan.Config{})
	members := map[netAddr]bool{}
	for _, s := range a.ResponseSessions {
		if got, want := a.OrgOf(s.Src), census.OrgOf(s.Src); got != want {
			t.Fatalf("OrgOf(%v) = %q, census says %q", s.Src, got, want)
		}
		if census.IsKnown(s.Src) {
			members[s.Src] = true
		}
		if got := a.KnownShare([]netAddr{s.Src}); got != map[bool]float64{true: 100}[census.IsKnown(s.Src)] {
			t.Fatalf("KnownShare(%v) = %v, census membership %v", s.Src, got, census.IsKnown(s.Src))
		}
	}
	if len(members) == 0 || len(a.census) != len(members) {
		t.Fatalf("join holds %d addresses, want the %d census members among response sources", len(a.census), len(members))
	}
}

func TestPipelineHeadlineShape(t *testing.T) {
	a := pipeline(t)

	// §5.1: research scanners dominate the raw packet counts.
	total := a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans") + a.HourlySource.TotalOf("Other")
	research := a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans")
	if share := float64(research) / float64(total); share < 0.95 {
		t.Errorf("research share = %.3f, want > 0.95 (paper 0.985)", share)
	}

	// Sanitized split: responses dominate requests.
	reqPk, respPk := 0, 0
	for _, s := range a.RequestSessions {
		reqPk += s.Packets
	}
	for _, s := range a.ResponseSessions {
		respPk += s.Packets
	}
	reqShare := float64(reqPk) / float64(reqPk+respPk)
	if reqShare < 0.05 || reqShare > 0.30 {
		t.Errorf("request share = %.3f, want ≈0.15", reqShare)
	}

	// No mixed sessions (the paper's disjointness observation).
	for _, s := range a.QUICSessions {
		if s.Kind() == sessions.KindMixed {
			t.Fatalf("mixed session from %v", s.Src)
		}
	}

	// Attack rate among response sessions ≈ 11 %.
	rate := float64(len(a.QUICDetector.Attacks)) / float64(a.QUICDetector.Inspected)
	if rate < 0.05 || rate > 0.25 {
		t.Errorf("attack share = %.3f, want ≈0.11", rate)
	}

	// Victims overwhelmingly inside the active-scan census.
	if share := a.KnownShare(a.Victims()); share < 85 {
		t.Errorf("known-victim share = %.1f%%, want ≈98%%", share)
	}

	// Google leads, Facebook second (58 % / 25 % in the paper).
	g, f := a.OrgShare("Google"), a.OrgShare("Facebook")
	if g < f || g < 35 || f < 10 {
		t.Errorf("org shares google=%.1f facebook=%.1f", g, f)
	}
}

func TestPipelineFigure3Diurnal(t *testing.T) {
	a := pipeline(t)
	req := a.HourlyType.Series["Requests"]
	if req == nil {
		t.Fatal("no request series")
	}
	var byHour [24]float64
	for h, v := range req {
		byHour[h%24] += float64(v)
	}
	peak := (byHour[5] + byHour[6] + byHour[7] + byHour[17] + byHour[18] + byHour[19]) / 6
	trough := (byHour[0] + byHour[1] + byHour[12] + byHour[23]) / 4
	if peak <= trough {
		t.Errorf("diurnal pattern missing: peak %.0f vs trough %.0f", peak, trough)
	}
}

func TestPipelineFigure4Knee(t *testing.T) {
	a := pipeline(t)
	s1, s5, s60 := a.Sweep.Sessions(1), a.Sweep.Sessions(5), a.Sweep.Sessions(60)
	if !(s1 > s5 && s5 >= s60) {
		t.Fatalf("sweep not monotone: %d %d %d", s1, s5, s60)
	}
	// The knee: most of the drop happens before 5 minutes.
	drop15 := float64(s1 - s5)
	drop560 := float64(s5 - s60)
	if drop15 < 3*drop560 {
		t.Errorf("knee too soft: drop(1→5)=%f drop(5→60)=%f", drop15, drop560)
	}
	if lb := a.Sweep.LowerBound(); uint64(float64(s60)) < lb {
		t.Errorf("sweep fell below the unique-source floor: %d < %d", s60, lb)
	}
}

func TestPipelineFigure5Join(t *testing.T) {
	a := pipeline(t)
	m := a.TypeMatrix()
	eyeball := m[typeEyeball()]
	content := m[typeContent()]
	if eyeball[0] == 0 || eyeball[1] != 0 {
		t.Errorf("eyeball row = %v, want requests only", eyeball)
	}
	if content[1] == 0 || content[0] != 0 {
		t.Errorf("content row = %v, want responses only", content)
	}
}

func TestPipelineFigure6VictimSkew(t *testing.T) {
	a := pipeline(t)
	counts := dosdetect.VictimCounts(a.QUICDetector.Attacks)
	var samples []float64
	once := 0
	for _, n := range counts {
		samples = append(samples, float64(n))
		if n == 1 {
			once++
		}
	}
	if len(samples) < 5 {
		t.Skip("too few victims at this scale")
	}
	e := stats.NewECDF(samples)
	if frac := float64(once) / float64(len(samples)); frac < 0.3 {
		t.Errorf("single-attack victims = %.2f, want >0.3 (paper >0.5)", frac)
	}
	if e.Max() < 5*e.Median() {
		t.Errorf("victim popularity tail too light: max %.0f median %.0f", e.Max(), e.Median())
	}
}

func TestPipelineFigure7DurationOrdering(t *testing.T) {
	a := pipeline(t)
	qd := stats.Median(a.AttackDurations(dosdetect.VectorQUIC))
	cd := stats.Median(a.AttackDurations(dosdetect.VectorCommon))
	// The paper's central comparison: QUIC floods are markedly
	// shorter (255 s vs 1499 s).
	if qd >= cd {
		t.Fatalf("QUIC median %.0f s not shorter than TCP/ICMP %.0f s", qd, cd)
	}
	if cd/qd < 2 {
		t.Errorf("duration ratio %.1f, want ≥2 (paper ≈5.9)", cd/qd)
	}
	// Intensities similar (both ≈1 max pps).
	qi := stats.Median(a.AttackIntensities(dosdetect.VectorQUIC))
	ci := stats.Median(a.AttackIntensities(dosdetect.VectorCommon))
	if qi < 0.5 || qi > 3 || ci < 0.5 || ci > 3 {
		t.Errorf("median intensities %.2f / %.2f, want ≈1", qi, ci)
	}
}

func TestPipelineFigure8MultiVector(t *testing.T) {
	a := pipeline(t)
	c, s, q := a.Correlation.Shares()
	if c < 30 || c > 70 {
		t.Errorf("concurrent = %.1f%%, want ≈51%%", c)
	}
	if s < 20 || s > 60 {
		t.Errorf("sequential = %.1f%%, want ≈40%%", s)
	}
	if q < 2 || q > 25 {
		t.Errorf("quic-only = %.1f%%, want ≈9%%", q)
	}
	// Concurrent must dominate quic-only by far.
	if c < 2*q {
		t.Errorf("concurrent (%.1f) should far exceed quic-only (%.1f)", c, q)
	}
}

func TestPipelineFigure9Anatomy(t *testing.T) {
	a := pipeline(t)
	var gScids, gPkts, fScids, fPkts, gN, fN float64
	for _, atk := range a.QUICDetector.Attacks {
		switch a.OrgOf(atk.Victim) {
		case "Google":
			gScids += float64(atk.UniqueSCIDs)
			gPkts += float64(atk.Packets)
			gN++
		case "Facebook":
			fScids += float64(atk.UniqueSCIDs)
			fPkts += float64(atk.Packets)
			fN++
		}
	}
	if gN == 0 || fN == 0 {
		t.Skip("no provider attacks at this scale")
	}
	// Google: more SCIDs per attack despite fewer packets.
	if gScids/gN <= fScids/fN {
		t.Errorf("SCIDs/attack: google %.1f <= facebook %.1f", gScids/gN, fScids/fN)
	}
	if gPkts/gN >= fPkts/fN {
		t.Errorf("packets/attack: google %.0f >= facebook %.0f", gPkts/gN, fPkts/fN)
	}
}

func TestPipelineFigure9Versions(t *testing.T) {
	a := pipeline(t)
	counts := map[string]map[string]int{}
	for _, atk := range a.QUICDetector.Attacks {
		org := a.OrgOf(atk.Victim)
		if org != "Google" && org != "Facebook" {
			continue
		}
		if counts[org] == nil {
			counts[org] = map[string]int{}
		}
		counts[org][atk.Version.String()]++
	}
	if g := counts["Google"]; g != nil {
		if g["draft-29"] <= g["v1"] {
			t.Errorf("google versions = %v, want draft-29 dominant", g)
		}
	}
	if f := counts["Facebook"]; f != nil {
		total := 0
		for _, n := range f {
			total += n
		}
		if float64(f["mvfst-draft-27"])/float64(total) < 0.7 {
			t.Errorf("facebook versions = %v, want mvfst-draft-27 ≥70%%", f)
		}
	}
}

func TestPipelineFigure10WeightSweep(t *testing.T) {
	a := pipeline(t)
	weights := []float64{0.5, 1, 2, 4, 10}
	counts, shares := dosdetect.WeightSweep(a.ResponseSessions, weights, func(v netAddr) bool {
		org := a.OrgOf(v)
		return org == "Google" || org == "Facebook"
	})
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("weight sweep not monotone: %v", counts)
		}
	}
	if counts[1] == 0 {
		t.Fatal("no attacks at w=1")
	}
	// Stricter thresholds must still find something (the Appendix B
	// claim that even w=10 leaves QUIC attacks); at small scale allow
	// w=4 as the floor.
	if counts[3] == 0 {
		t.Errorf("no attacks at w=4: %v", counts)
	}
	// Content share stays high under w=1..2.
	for i := 1; i <= 2; i++ {
		if counts[i] > 0 && shares[i] < 50 {
			t.Errorf("FB+Google share at w=%v: %.1f%%", weights[i], shares[i])
		}
	}
}

func TestPipelineFigure12Overlap(t *testing.T) {
	a := pipeline(t)
	overlaps := a.Correlation.OverlapShares()
	if len(overlaps) == 0 {
		t.Skip("no concurrent attacks at this scale")
	}
	full := 0
	for _, v := range overlaps {
		if v >= 99.99 {
			full++
		}
	}
	if frac := float64(full) / float64(len(overlaps)); frac < 0.4 {
		t.Errorf("fully-overlapped share = %.2f, want ≈0.75", frac)
	}
	if mean := stats.NewECDF(overlaps).Mean(); mean < 70 {
		t.Errorf("mean overlap = %.1f%%, want ≈95%%", mean)
	}
}

func TestPipelineFigure13Gaps(t *testing.T) {
	a := pipeline(t)
	gaps := a.Correlation.SequentialGaps()
	if len(gaps) == 0 {
		t.Skip("no sequential attacks")
	}
	over1h := 0
	for _, g := range gaps {
		if g <= 0 {
			t.Fatalf("non-positive gap %f", g)
		}
		if g > 3600 {
			over1h++
		}
	}
	if frac := float64(over1h) / float64(len(gaps)); frac < 0.4 {
		t.Errorf("gaps >1h = %.2f, want ≈0.82", frac)
	}
}

func TestPipelineSection6(t *testing.T) {
	a := pipeline(t)
	ini, hs, other := a.MessageMix()
	if ini < 20 || ini > 45 {
		t.Errorf("initial share = %.1f%%, want ≈31%%", ini)
	}
	if hs < 40 || hs > 75 {
		t.Errorf("handshake share = %.1f%%, want ≈57%%", hs)
	}
	if other < 0 || other > 30 {
		t.Errorf("other share = %.1f%%", other)
	}
	if hs <= ini {
		t.Error("handshake share must exceed initial share")
	}

	// Appendix B: excluded sessions are low-volume.
	pk, dur, pps := a.ExcludedProfile()
	if pk > 26 || dur > 80 || pps > 0.6 {
		t.Errorf("excluded profile too heavy: %.0f pkts, %.0f s, %.2f pps", pk, dur, pps)
	}

	// GreyNoise: no benign scanners, a small malicious share, BD on top.
	if a.ScanSources.Benign != 0 {
		t.Errorf("benign scanners = %d", a.ScanSources.Benign)
	}
	if share := a.ScanSources.MaliciousShare(); share <= 0 || share > 8 {
		t.Errorf("malicious share = %.1f%%, want ≈2.3%%", share)
	}
	top := a.ScanSources.TopCountries(3)
	if len(top) == 0 || top[0].Country != "BD" {
		t.Errorf("top countries = %+v, want BD first", top)
	}
}

func TestRenderAllSectionsPresent(t *testing.T) {
	a := pipeline(t)
	out := a.RenderAll()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13", "Headline", "Section 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestNonQUICFilter(t *testing.T) {
	a := pipeline(t)
	// All generated traffic is genuine QUIC, so deep validation should
	// reject nothing — a regression check on the dissector.
	if a.NonQUIC != 0 {
		t.Errorf("dissector rejected %d genuine QUIC payloads", a.NonQUIC)
	}
}
