package scenario

import (
	"math"
	"strings"
	"testing"

	"quicsand/internal/ibr"
	"quicsand/internal/telescope"
)

// TestBuiltinsLoadAndCompile pins the registry: every built-in parses,
// validates, self-names consistently, and compiles into a non-empty
// schedule that actually streams packets.
func TestBuiltinsLoadAndCompile(t *testing.T) {
	names := Builtins()
	if len(names) < 5 {
		t.Fatalf("want >= 5 built-ins, have %v", names)
	}
	for _, name := range names {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("%s: spec names itself %q", name, sc.Name)
		}
		if sc.Description == "" {
			t.Errorf("%s: missing description", name)
		}
		g, err := Compile(sc, ibr.Config{Seed: 5, Scale: 0.002, SkipResearch: true})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		n := 0
		g.Feeds(1, false)[0].Run(func(*telescope.Packet) { n++ })
		if n == 0 {
			t.Errorf("%s: compiled month is empty", name)
		}
	}
}

// TestBuiltinGroundTruth spot-checks that compilation fills the ground
// truth the GreyNoise and census joins consume.
func TestBuiltinGroundTruth(t *testing.T) {
	sc, err := Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Compile(sc, ibr.Config{Seed: 5, Scale: 0.01, SkipResearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Truth.QUICAttacks == 0 || len(g.Truth.QUICVictims) == 0 {
		t.Errorf("no scheduled QUIC attacks in truth: %+v", g.Truth)
	}
	if len(g.Truth.BotAddrs) == 0 {
		t.Error("recon scan scheduled no bots")
	}
	for v, org := range g.Truth.QUICVictims {
		if org == "" {
			t.Errorf("victim %v has no org label", v)
		}
	}

	mv, err := Builtin("multi-vector-burst")
	if err != nil {
		t.Fatal(err)
	}
	gm, err := Compile(mv, ibr.Config{Seed: 5, Scale: 0.01, SkipResearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if gm.Truth.Concurrent+gm.Truth.Sequential == 0 {
		t.Error("paired phase scheduled no concurrent/sequential partners")
	}
	if gm.Truth.CommonAttacks == 0 {
		t.Error("common-mix floor scheduled no TCP/ICMP attacks")
	}
}

// TestLoadJSON exercises the JSON path with the same strictness rules
// as TOML.
func TestLoadJSON(t *testing.T) {
	sc, err := Load([]byte(`{
		"name": "j",
		"phases": [
			{"kind": "flood", "vector": "quic", "attacks": 10,
			 "victims": {"org": "Google", "size": 4},
			 "versions": [{"version": "v1", "share": 1}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Phases[0].Victims.Org != "Google" {
		t.Errorf("victims mis-parsed: %+v", sc.Phases[0].Victims)
	}
	if _, err := Load([]byte(`{"name": "j", "phases": [{"kind": "flood", "vector": "quic", "attacks": 1, "victims": {"size": 1}, "typo_knob": 3}]}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := Load([]byte(`{"name": "j", "phases": []} trailing`)); err == nil {
		t.Error("trailing JSON data accepted")
	}
}

// TestLoadRejectsMalformed is the spec-loader error matrix: every
// malformed document must error (and never panic — FuzzLoad widens
// this to arbitrary bytes).
func TestLoadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no name":                "description = \"x\"\n[[phases]]\nkind = \"misconfig\"\nsources = 1",
		"zero phases":            "name = \"x\"",
		"paper + phases":         "name = \"x\"\npaper = true\n[[phases]]\nkind = \"misconfig\"\nsources = 1",
		"unknown kind":           "name = \"x\"\n[[phases]]\nkind = \"ddos\"",
		"unknown knob":           "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nwarp_factor = 9",
		"nan rate":               "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nvisits_mean = nan",
		"inf rate":               "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nvisits_mean = inf",
		"negative rate":          "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nvisits_mean = -2",
		"zero sources":           "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 0",
		"zero attacks":           "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\n[phases.victims]\nsize = 3",
		"no victims":             "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5",
		"bad vector":             "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"smtp\"\nattacks = 5\n[phases.victims]\nsize = 3",
		"bad version":            "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nversions = [{version = \"h3-27\", share = 1}]",
		"zero share":             "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nversions = [{version = \"v1\", share = 0}]",
		"window overrun":         "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nstart_sec = 2000000\ndur_sec = 2000000",
		"sweep default overrun":  "name = \"x\"\n[[phases]]\nkind = \"research-scan\"\nsweeps = 1\nstart_sec = 2588400\ndur_sec = 3600",
		"sweep explicit overrun": "name = \"x\"\n[[phases]]\nkind = \"research-scan\"\nsweeps = 1\ndur_sec = 7200\nsweep_hours = 8",
		"diurnal with window":    "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\ndiurnal = true\ndur_sec = 864000",
		"short scan window":      "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nstart_sec = 100\ndur_sec = 50",
		"short misconfig window": "name = \"x\"\n[[phases]]\nkind = \"misconfig\"\nsources = 5\nstart_sec = 864000\ndur_sec = 60",
		"negative peak":          "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\n[phases.victims]\nsize = 3\n[phases.rate]\npeak_pkts = -260",
		"negative pkts":          "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\npackets_per_visit = -3",
		"negative tag share":     "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\ntag_share = -0.1",
		"start past end":         "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nstart_sec = 99999999",
		"short flood":            "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\ndur_sec = 60\n[phases.victims]\nsize = 3",
		"bad scid":               "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\nscid_policy = \"entropic\"\n[phases.victims]\nsize = 3",
		"bad shape":              "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\n[phases.victims]\nsize = 3\n[phases.rate]\nshape = \"sawtooth\"",
		"pair overflow":          "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\npair = {concurrent_share = 0.9, sequential_share = 0.4}\n[phases.victims]\nsize = 3",
		"pair non-quic":          "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"tcp\"\nattacks = 5\npair = {concurrent_share = 0.5, sequential_share = 0.1}\n[phases.victims]\nsize = 3",
		"amp overflow":           "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\namplification = 1000\n[phases.victims]\nsize = 3",
		"dup key":                "name = \"x\"\nname = \"y\"\n[[phases]]\nkind = \"misconfig\"\nsources = 1",
		"dup table":              "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\n[phases.victims]\nsize = 3\n[phases.victims]\norg = \"Google\"",
		"array extend":           "name = \"x\"\nphases = []\n[[phases]]\nkind = \"misconfig\"\nsources = 1",
		"inline extend":          "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\nrate = {base_pps = 0.5}\n[phases.rate]\npeak_pkts = 7\n[phases.victims]\nsize = 3",
		"tcp retry":              "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"tcp\"\nattacks = 5\nretry_mitigation = true\n[phases.victims]\nsize = 3",
		"tcp scid":               "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"icmp\"\nattacks = 5\nscid_policy = \"fresh\"\n[phases.victims]\nsize = 3",
		"tcp versions":           "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"common-mix\"\nattacks = 5\nversions = [{version = \"v1\", share = 1}]\n[phases.victims]\nsize = 3",
		"foreign knob":           "name = \"x\"\n[[phases]]\nkind = \"scan\"\nsources = 5\nattacks = 1400\n[phases.victims]\nsize = 3",
		"misconfig knob":         "name = \"x\"\n[[phases]]\nkind = \"misconfig\"\nsources = 5\ndiurnal = true",
		"sub-unity amp":          "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\namplification = 0.5\n[phases.victims]\nsize = 3",
		"scid over 1":            "name = \"x\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\nscid_ratio = 1.5\n[phases.victims]\nsize = 3",
		"bad toml":               "name = \"x\"\n[[phases]\nkind = \"misconfig\"",
		"bad value":              "name = \"x\"\n[[phases]]\nkind = \"misconfig\"\nsources = five",
		"unterminated":           "name = \"unterminated",
	}
	for label, spec := range cases {
		if _, err := Load([]byte(spec)); err == nil {
			t.Errorf("%s: accepted:\n%s", label, spec)
		}
	}
}

// TestValidateNonFinite covers programmatic scenarios (no loader in
// between): NaN and Inf knobs must fail validation directly.
func TestValidateNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc := &Scenario{Name: "x", Phases: []Phase{{
			Kind: KindFlood, Vector: "quic", Attacks: 5,
			Victims: VictimPool{Size: 3},
			Rate:    RateCurve{BasePPS: v},
		}}}
		if err := sc.Validate(); err == nil {
			t.Errorf("BasePPS = %v validated", v)
		}
	}
	sc := &Scenario{Name: "x", Phases: []Phase{{Kind: KindScan, Sources: 2, StartSec: math.NaN()}}}
	if err := sc.Validate(); err == nil {
		t.Error("NaN start_sec validated")
	}
}

// TestTagShareZeroDistinct pins the unset-vs-zero contract: an
// explicit tag_share = 0.0 schedules a wave invisible to the GreyNoise
// join, while omitting the knob keeps the paper's 2.3 % default.
func TestTagShareZeroDistinct(t *testing.T) {
	compileScan := func(spec string) int {
		t.Helper()
		sc, err := Load([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		g, err := Compile(sc, ibr.Config{Seed: 9, Scale: 0.5, SkipResearch: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Truth.BotAddrs) == 0 {
			t.Fatal("no bots scheduled")
		}
		return len(g.Truth.TaggedBots)
	}
	zero := compileScan("name = \"z\"\n[[phases]]\nkind = \"scan\"\nsources = 2000\ntag_share = 0.0")
	if zero != 0 {
		t.Errorf("tag_share = 0.0 tagged %d bots, want 0", zero)
	}
	def := compileScan("name = \"d\"\n[[phases]]\nkind = \"scan\"\nsources = 2000")
	if def == 0 {
		t.Error("omitted tag_share tagged no bots (2.3% default lost)")
	}
}

// TestSkipResearchOnlyDropsSweeps pins the paper schedule's
// SkipResearch contract on the scenario path: skipping must remove the
// research sweeps and nothing else — the plan methods fork the root
// RNG before their guards, so every later phase draws identically.
func TestSkipResearchOnlyDropsSweeps(t *testing.T) {
	compileWith := func(skip bool) *ibr.Generator {
		sc, err := Builtin("versionneg-scan-campaign")
		if err != nil {
			t.Fatal(err)
		}
		g, err := Compile(sc, ibr.Config{Seed: 9, Scale: 0.005, SkipResearch: skip})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	full := compileWith(false)
	skipped := compileWith(true)
	if len(full.Truth.ResearchHosts) == 0 {
		t.Fatal("full run scheduled no research hosts")
	}
	if len(skipped.Truth.ResearchHosts) != 0 {
		t.Error("skip-research still scheduled research hosts")
	}
	if len(full.Truth.BotAddrs) == 0 || len(full.Truth.BotAddrs) != len(skipped.Truth.BotAddrs) {
		t.Fatalf("bot counts diverged: %d vs %d", len(full.Truth.BotAddrs), len(skipped.Truth.BotAddrs))
	}
	for i := range full.Truth.BotAddrs {
		if full.Truth.BotAddrs[i] != skipped.Truth.BotAddrs[i] {
			t.Fatalf("bot %d diverged: %v vs %v — SkipResearch reshuffled later phases", i, full.Truth.BotAddrs[i], skipped.Truth.BotAddrs[i])
		}
	}
	if full.Truth.MisconfSources != skipped.Truth.MisconfSources {
		t.Errorf("misconfig sources diverged: %d vs %d", full.Truth.MisconfSources, skipped.Truth.MisconfSources)
	}
}

// TestSCIDRatioZeroDistinct pins the unset-vs-zero contract for the
// SCID override: an explicit 0 (never fresh) must load and survive to
// compilation instead of being swallowed by the policy default.
func TestSCIDRatioZeroDistinct(t *testing.T) {
	sc, err := Load([]byte("name = \"z\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 5\nscid_ratio = 0.0\n[phases.victims]\nsize = 3"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Phases[0].SCIDRatio == nil || *sc.Phases[0].SCIDRatio != 0 {
		t.Fatalf("explicit scid_ratio = 0 lost: %+v", sc.Phases[0].SCIDRatio)
	}
	if got := scidRatioOf(&sc.Phases[0]); got != 0 {
		t.Errorf("scidRatioOf = %v, want 0 (explicit zero must not fall back to the policy default)", got)
	}
	unset := &Phase{Kind: KindFlood}
	if got := scidRatioOf(unset); got != 0.6 {
		t.Errorf("unset scid_ratio resolved to %v, want the 0.6 default", got)
	}
}

// TestMisconfigWindow pins that a misconfig phase's window actually
// bounds its responder visits (it was once silently ignored).
func TestMisconfigWindow(t *testing.T) {
	const startSec, durSec = 864000, 172800 // days 10-12
	sc, err := Load([]byte("name = \"w\"\n[[phases]]\nkind = \"misconfig\"\nsources = 3000\nstart_sec = 864000\ndur_sec = 172800"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Compile(sc, ibr.Config{Seed: 3, Scale: 0.01, SkipResearch: true})
	if err != nil {
		t.Fatal(err)
	}
	lo := telescope.TS(telescope.MeasurementStart) + telescope.Timestamp(startSec*1000)
	hi := telescope.TS(telescope.MeasurementStart) + telescope.Timestamp((startSec+durSec)*1000)
	n := 0
	g.Feeds(1, false)[0].Run(func(p *telescope.Packet) {
		n++
		if p.TS < lo || p.TS > hi {
			t.Fatalf("responder packet at %d outside window [%d, %d]", p.TS, lo, hi)
		}
	})
	if n == 0 {
		t.Fatal("no responder packets")
	}
}

// TestCompileUnknownOrg: victim pools resolve against the census at
// compile time; a missing organisation is a compile error, not an
// empty month.
func TestCompileUnknownOrg(t *testing.T) {
	sc := &Scenario{Name: "x", Phases: []Phase{{
		Kind: KindFlood, Vector: "quic", Attacks: 5,
		Victims: VictimPool{Org: "Altavista", Size: 3},
	}}}
	if _, err := Compile(sc, ibr.Config{Seed: 1, Scale: 0.01}); err == nil ||
		!strings.Contains(err.Error(), "Altavista") {
		t.Errorf("unknown org compiled: %v", err)
	}
}

// TestTOMLParserShapes locks the subset parser's structural behavior.
func TestTOMLParserShapes(t *testing.T) {
	tree, err := parseTOML([]byte(`
# comment
name = "s" # trailing comment
flag = true
n = 42
f = 2.5
arr = [1, 2, 3]
mixed = [{a = 1}, {a = 2}]

[top]
k = "v"

[top.nested]
k2 = "v2"

[[items]]
x = 1
[items.sub]
y = 2

[[items]]
x = 3
`))
	if err != nil {
		t.Fatal(err)
	}
	if tree["name"] != "s" || tree["flag"] != true || tree["n"] != int64(42) || tree["f"] != 2.5 {
		t.Errorf("scalars mis-parsed: %+v", tree)
	}
	top := tree["top"].(map[string]any)
	if top["k"] != "v" || top["nested"].(map[string]any)["k2"] != "v2" {
		t.Errorf("tables mis-parsed: %+v", top)
	}
	items := tree["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("array-of-tables mis-parsed: %+v", items)
	}
	if items[0].(map[string]any)["sub"].(map[string]any)["y"] != int64(2) {
		t.Errorf("sub-table of array element mis-parsed: %+v", items[0])
	}
	if items[1].(map[string]any)["x"] != int64(3) {
		t.Errorf("second array element mis-parsed: %+v", items[1])
	}
}

// TestWindowResolution checks the DurSec-0 "rest of month" semantics.
func TestWindowResolution(t *testing.T) {
	p := Phase{StartSec: 86400}
	start, dur := p.Window()
	if start != 86400 || dur != MonthSeconds()-86400 {
		t.Errorf("window = (%v, %v)", start, dur)
	}
}
