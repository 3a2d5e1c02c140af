package scenario

// Built-in scenarios. Each is a Go constructor returning a fresh
// Scenario literal, so the compiler checks every knob name; json.Marshal
// of any built-in is a valid spec file (the same container users
// author, examples/scenarios). Counts are paper-magnitude values at
// scale 1; Config.Scale shrinks them like the paper schedule.

import (
	"fmt"
	"sort"
)

var builtins = map[string]func() *Scenario{
	"paper-2021":               paper2021,
	"handshake-flood-qfam":     handshakeFloodQFAM,
	"retry-mitigated-flood":    retryMitigatedFlood,
	"versionneg-scan-campaign": versionnegScanCampaign,
	"multi-vector-burst":       multiVectorBurst,
}

// paper2021 is the paper's hard-coded April 2021 month (ibr.New).
func paper2021() *Scenario {
	return &Scenario{
		Name:        "paper-2021",
		Description: "The paper's April 2021 telescope month: research sweeps, scanning bots, QUIC and TCP/ICMP floods, misconfiguration noise",
		Paper:       true,
	}
}

// handshakeFloodQFAM is handshake flooding against servers that answer
// with full handshake flights — the workload QFAM (arXiv:2412.08936)
// mitigates. Fresh per-connection contexts and amplified server flights
// make it the worst case for victim state and bandwidth.
func handshakeFloodQFAM() *Scenario {
	return &Scenario{
		Name:        "handshake-flood-qfam",
		Description: "Handshake flooding with full server flights: fresh SCIDs per tuple and ~3x amplified responses (the un-mitigated QFAM baseline)",
		Phases: []Phase{
			{
				Kind:       KindScan,
				Label:      "recon",
				Sources:    900,
				VisitsMean: 1.1,
				Diurnal:    true,
				Versions:   []VersionShare{{Version: "v1", Share: 0.6}, {Version: "draft-29", Share: 0.4}},
			},
			{
				Kind:          KindFlood,
				Label:         "google-wave",
				Vector:        "quic",
				Attacks:       1400,
				Amplification: 3.0,
				SCIDPolicy:    "fresh",
				Versions:      []VersionShare{{Version: "draft-29", Share: 0.8}, {Version: "v1", Share: 0.2}},
				Victims:       VictimPool{Org: "Google", Size: 160, Skew: 1.15},
				Duration:      Duration{MedianSec: 180, Sigma: 0.7},
				Rate:          RateCurve{BasePPS: 0.4, PeakPkts: 260, Shape: "burst"},
			},
			{
				Kind:          KindFlood,
				Label:         "cdn-wave",
				Vector:        "quic",
				Attacks:       500,
				Amplification: 2.0,
				SCIDPolicy:    "fresh",
				Victims:       VictimPool{Org: "any", Size: 120, Skew: 1.3},
				Rate:          RateCurve{BasePPS: 0.3, PeakPkts: 160},
			},
			{Kind: KindMisconfig, Sources: 400},
		},
	}
}

// retryMitigatedFlood is the same flood pressure against
// Retry-mitigated victims: the server answers statelessly with Retry
// crypto challenges, so the backscatter collapses to small Retry
// datagrams with pooled contexts and no amplification.
func retryMitigatedFlood() *Scenario {
	return &Scenario{
		Name:        "retry-mitigated-flood",
		Description: "Handshake floods against Retry-mitigated victims: stateless crypto challenges, ~1x amplification, small Retry backscatter",
		Phases: []Phase{
			{
				Kind:            KindFlood,
				Label:           "mitigated",
				Vector:          "quic",
				Attacks:         1400,
				RetryMitigation: true,
				SCIDPolicy:      "pooled",
				Versions:        []VersionShare{{Version: "v1", Share: 0.7}, {Version: "draft-29", Share: 0.3}},
				Victims:         VictimPool{Org: "Google", Size: 160, Skew: 1.15},
				Duration:        Duration{MedianSec: 180, Sigma: 0.7},
				Rate:            RateCurve{BasePPS: 0.4, PeakPkts: 260},
			},
			{
				Kind:       KindFlood,
				Label:      "unmitigated-rest",
				Vector:     "quic",
				Attacks:    350,
				SCIDPolicy: "mixed",
				Versions:   []VersionShare{{Version: "mvfst-draft-27", Share: 0.9}, {Version: "draft-29", Share: 0.1}},
				Victims:    VictimPool{Org: "Facebook", Size: 60, Skew: 1.2},
				Rate:       RateCurve{BasePPS: 0.3, PeakPkts: 140},
			},
			{Kind: KindMisconfig, Sources: 300},
		},
	}
}

// versionnegScanCampaign is a version-heterogeneous scan campaign:
// three staggered waves move the population from draft-27 through
// draft-29 to v1, the deployment churn "A First Look at QUIC in the
// Wild" (arXiv:1801.05168) observed — over two research sweeps.
func versionnegScanCampaign() *Scenario {
	return &Scenario{
		Name:        "versionneg-scan-campaign",
		Description: "Version-heterogeneous scan campaign: staggered draft-27 / draft-29 / v1 waves over two research sweeps",
		Phases: []Phase{
			{Kind: KindResearchScan, Sweeps: 2, SweepHours: 8},
			{
				Kind:     KindScan,
				Label:    "wave-draft27",
				Sources:  1500,
				StartSec: 0,
				DurSec:   864000, // days 0-10
				Versions: []VersionShare{{Version: "draft-27", Share: 0.7}, {Version: "mvfst-draft-27", Share: 0.3}},
			},
			{
				Kind:     KindScan,
				Label:    "wave-draft29",
				Sources:  2400,
				StartSec: 777600, // days 9-19
				DurSec:   864000,
				Versions: []VersionShare{{Version: "draft-29", Share: 0.8}, {Version: "draft-27", Share: 0.2}},
			},
			{
				Kind:     KindScan,
				Label:    "wave-v1",
				Sources:  3200,
				StartSec: 1641600, // day 19 onward
				Versions: []VersionShare{{Version: "v1", Share: 0.75}, {Version: "draft-29", Share: 0.25}},
			},
			{Kind: KindMisconfig, Sources: 900, VisitsMean: 4.0},
		},
	}
}

// multiVectorBurst is a compressed multi-vector event: QUIC floods
// inside a 60-hour window, paired with concurrent/sequential TCP and
// ICMP attacks on the same victims, over an Internet-wide common-flood
// floor.
func multiVectorBurst() *Scenario {
	return &Scenario{
		Name:        "multi-vector-burst",
		Description: "60-hour QUIC flood burst with paired TCP/ICMP attacks over an Internet-wide common-flood floor",
		Phases: []Phase{
			{
				Kind:       KindFlood,
				Label:      "quic-burst",
				Vector:     "quic",
				Attacks:    900,
				StartSec:   1036800, // day 12
				DurSec:     216000,  // 60 hours
				SCIDPolicy: "mixed",
				Pair:       &PairSpec{ConcurrentShare: 0.55, SequentialShare: 0.36},
				Victims:    VictimPool{Org: "any", Size: 110, Skew: 1.2},
				Duration:   Duration{MedianSec: 240, Sigma: 0.8},
				Rate:       RateCurve{BasePPS: 0.35, PeakPkts: 200, Shape: "ramp"},
			},
			{
				Kind:    KindFlood,
				Label:   "common-floor",
				Vector:  "common-mix",
				Attacks: 20000,
				Victims: VictimPool{Org: "internet", Size: 4000, Skew: 1.5},
				Rate:    RateCurve{BasePPS: 0.1, PeakPkts: 80, Shape: "square"},
			},
			{Kind: KindScan, Sources: 1200, Diurnal: true},
			{Kind: KindMisconfig, Sources: 500},
		},
	}
}

// Builtin returns a built-in scenario by name; it fails only for an
// unknown name. Every call constructs a fresh value: callers may tweak
// the result for an experiment without poisoning the registry (whose
// frozen contents the golden corpus depends on).
func Builtin(name string) (*Scenario, error) {
	build, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown built-in %q (have: %v)", name, Builtins())
	}
	return build(), nil
}

// Builtins lists the built-in scenario names, sorted.
func Builtins() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns a one-line "name — description" listing of every
// built-in, for CLI help.
func Describe() []string {
	names := Builtins()
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%-26s %s", name, builtins[name]().Description)
	}
	return out
}
