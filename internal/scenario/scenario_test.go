package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"quicsand/internal/ibr"
	"quicsand/internal/telescope"
)

// TestBuiltinsLoadAndCompile pins the registry: every built-in names
// itself consistently, validates, and compiles into a non-empty
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

// TestLoadJSON exercises the loader's happy path and its strictness
// rules: unknown fields, trailing data and non-JSON input are errors.
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
	for _, doc := range []string{"name = \"x\"\n[[phases]]\nkind = \"misconfig\"\nsources = 1", `[{"name": "x"}]`, ""} {
		if _, err := Load([]byte(doc)); err == nil || !strings.Contains(err.Error(), "scenario specs are JSON") {
			t.Errorf("%q: want a not-JSON error, got %v", doc, err)
		}
	}
	_, err = Load([]byte(`{"name": "x", "phases": [{"kind": "misconfig", "sources": 1, "Sources": 900}]}`))
	if err == nil || !strings.Contains(err.Error(), `duplicate key "Sources"`) {
		t.Errorf("case-folded duplicate key: got %v", err)
	}
}

// TestLoadRejectsMalformed is the spec-loader error matrix: every
// malformed document must error (and never panic — FuzzLoad widens
// this to arbitrary bytes).
func TestLoadRejectsMalformed(t *testing.T) {
	const misconfig = `{"kind": "misconfig", "sources": 1}`
	// phase wraps one phase object into a spec named "x".
	phase := func(p string) string { return `{"name": "x", "phases": [` + p + `]}` }
	cases := map[string]string{
		"no name":                `{"description": "x", "phases": [` + misconfig + `]}`,
		"zero phases":            `{"name": "x"}`,
		"paper + phases":         `{"name": "x", "paper": true, "phases": [` + misconfig + `]}`,
		"unknown kind":           phase(`{"kind": "ddos"}`),
		"unknown knob":           phase(`{"kind": "scan", "sources": 5, "warp_factor": 9}`),
		"nan rate":               phase(`{"kind": "scan", "sources": 5, "visits_mean": NaN}`),
		"inf rate":               phase(`{"kind": "scan", "sources": 5, "visits_mean": 1e999}`),
		"negative rate":          phase(`{"kind": "scan", "sources": 5, "visits_mean": -2}`),
		"zero sources":           phase(`{"kind": "scan", "sources": 0}`),
		"zero attacks":           phase(`{"kind": "flood", "vector": "quic", "victims": {"size": 3}}`),
		"no victims":             phase(`{"kind": "flood", "vector": "quic", "attacks": 5}`),
		"bad vector":             phase(`{"kind": "flood", "vector": "smtp", "attacks": 5, "victims": {"size": 3}}`),
		"bad version":            phase(`{"kind": "scan", "sources": 5, "versions": [{"version": "h3-27", "share": 1}]}`),
		"zero share":             phase(`{"kind": "scan", "sources": 5, "versions": [{"version": "v1", "share": 0}]}`),
		"window overrun":         phase(`{"kind": "scan", "sources": 5, "start_sec": 2000000, "dur_sec": 2000000}`),
		"sweep default overrun":  phase(`{"kind": "research-scan", "sweeps": 1, "start_sec": 2588400, "dur_sec": 3600}`),
		"sweep explicit overrun": phase(`{"kind": "research-scan", "sweeps": 1, "dur_sec": 7200, "sweep_hours": 8}`),
		"diurnal with window":    phase(`{"kind": "scan", "sources": 5, "diurnal": true, "dur_sec": 864000}`),
		"short scan window":      phase(`{"kind": "scan", "sources": 5, "start_sec": 100, "dur_sec": 50}`),
		"short misconfig window": phase(`{"kind": "misconfig", "sources": 5, "start_sec": 864000, "dur_sec": 60}`),
		"negative peak":          phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "victims": {"size": 3}, "rate": {"peak_pkts": -260}}`),
		"negative pkts":          phase(`{"kind": "scan", "sources": 5, "packets_per_visit": -3}`),
		"negative tag share":     phase(`{"kind": "scan", "sources": 5, "tag_share": -0.1}`),
		"start past end":         phase(`{"kind": "scan", "sources": 5, "start_sec": 99999999}`),
		"short flood":            phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "dur_sec": 60, "victims": {"size": 3}}`),
		"bad scid":               phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "scid_policy": "entropic", "victims": {"size": 3}}`),
		"bad shape":              phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "victims": {"size": 3}, "rate": {"shape": "sawtooth"}}`),
		"pair overflow":          phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "pair": {"concurrent_share": 0.9, "sequential_share": 0.4}, "victims": {"size": 3}}`),
		"pair non-quic":          phase(`{"kind": "flood", "vector": "tcp", "attacks": 5, "pair": {"concurrent_share": 0.5, "sequential_share": 0.1}, "victims": {"size": 3}}`),
		"amp overflow":           phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "amplification": 1000, "victims": {"size": 3}}`),
		"dup key":                `{"name": "x", "name": "y", "phases": [` + misconfig + `]}`,
		"dup phase key":          phase(`{"kind": "misconfig", "sources": 1, "sources": 900}`),
		"dup folded key":         phase(`{"kind": "misconfig", "sources": 1, "Sources": 900}`),
		"dup folded top key":     `{"name": "x", "NAME": "y", "phases": [` + misconfig + `]}`,
		"dup unicode-folded key": phase(`{"kind": "misconfig", "\u212aind": "scan", "sources": 1}`),
		"dup nested key":         phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "victims": {"size": 3, "Size": 300}}`),
		"tcp retry":              phase(`{"kind": "flood", "vector": "tcp", "attacks": 5, "retry_mitigation": true, "victims": {"size": 3}}`),
		"tcp scid":               phase(`{"kind": "flood", "vector": "icmp", "attacks": 5, "scid_policy": "fresh", "victims": {"size": 3}}`),
		"tcp versions":           phase(`{"kind": "flood", "vector": "common-mix", "attacks": 5, "versions": [{"version": "v1", "share": 1}], "victims": {"size": 3}}`),
		"foreign knob":           phase(`{"kind": "scan", "sources": 5, "attacks": 1400, "victims": {"size": 3}}`),
		"misconfig knob":         phase(`{"kind": "misconfig", "sources": 5, "diurnal": true}`),
		"sub-unity amp":          phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "amplification": 0.5, "victims": {"size": 3}}`),
		"scid over 1":            phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "scid_ratio": 1.5, "victims": {"size": 3}}`),
	}
	for label, spec := range cases {
		if _, err := Load([]byte(spec)); err == nil {
			t.Errorf("%s: accepted:\n%s", label, spec)
		}
	}
	// The duplicate-key cases are otherwise sound: without the
	// repetition each loads, so the walk is what rejects them.
	if _, err := Load([]byte(phase(misconfig))); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

// TestBuiltinsAreSpecFiles: json.Marshal of every built-in is a spec
// that Load turns back into the same value.
func TestBuiltinsAreSpecFiles(t *testing.T) {
	for _, name := range Builtins() {
		want, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the value:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestBuiltinFreshPerCall holds Builtin to its promise that callers
// may tweak the result: a mutated built-in, pointer fields and slices
// included, leaves the next call's value untouched.
func TestBuiltinFreshPerCall(t *testing.T) {
	share := 0.5
	for _, name := range Builtins() {
		orig, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		orig.Name, orig.Description, orig.Paper = "mutated", "mutated", !orig.Paper
		for i := range orig.Phases {
			p := &orig.Phases[i]
			p.Label, p.Sources, p.StartSec = "mutated", p.Sources+1, p.StartSec+1
			p.Victims.Org, p.Rate.PeakPkts = "mutated", p.Rate.PeakPkts+1
			for j := range p.Versions {
				p.Versions[j] = VersionShare{Version: "draft-27", Share: 0.01}
			}
			if p.TagShare != nil {
				*p.TagShare = share
			}
			if p.SCIDRatio != nil {
				*p.SCIDRatio = share
			}
			if p.Pair != nil {
				*p.Pair = PairSpec{ConcurrentShare: share, SequentialShare: share}
			}
			p.TagShare, p.SCIDRatio, p.Pair = &share, &share, &PairSpec{}
		}
		orig.Phases = append(orig.Phases, Phase{Kind: KindMisconfig, Sources: 7})

		again, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: mutating one Builtin result changed the next:\n got %s\nwant %s", name, got, want)
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
	zero := compileScan(`{"name": "z", "phases": [{"kind": "scan", "sources": 2000, "tag_share": 0.0}]}`)
	if zero != 0 {
		t.Errorf("tag_share = 0.0 tagged %d bots, want 0", zero)
	}
	def := compileScan(`{"name": "d", "phases": [{"kind": "scan", "sources": 2000}]}`)
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
	sc, err := Load([]byte(`{"name": "z", "phases": [{"kind": "flood", "vector": "quic", "attacks": 5, "scid_ratio": 0.0, "victims": {"size": 3}}]}`))
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
	sc, err := Load([]byte(`{"name": "w", "phases": [{"kind": "misconfig", "sources": 3000, "start_sec": 864000, "dur_sec": 172800}]}`))
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

// TestWindowResolution checks the DurSec-0 "rest of month" semantics.
func TestWindowResolution(t *testing.T) {
	p := Phase{StartSec: 86400}
	start, dur := p.Window()
	if start != 86400 || dur != MonthSeconds()-86400 {
		t.Errorf("window = (%v, %v)", start, dur)
	}
}
