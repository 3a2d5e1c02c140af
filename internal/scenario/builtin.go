package scenario

// Built-in scenarios. They are written as TOML specs — the same
// container users author — so the loader is exercised on every run and
// the specs double as copy-paste templates (examples/scenarios).
// Counts are paper-magnitude values at scale 1; Config.Scale shrinks
// them like the paper schedule.

import (
	"fmt"
	"sort"
	"sync"
)

var builtinSpecs = map[string]string{
	// The paper's hard-coded April 2021 month (ibr.New).
	"paper-2021": `
name = "paper-2021"
description = "The paper's April 2021 telescope month: research sweeps, scanning bots, QUIC and TCP/ICMP floods, misconfiguration noise"
paper = true
`,

	// Handshake flooding against servers that answer with full
	// handshake flights — the workload QFAM (arXiv:2412.08936)
	// mitigates. Fresh per-connection contexts and amplified server
	// flights make it the worst case for victim state and bandwidth.
	"handshake-flood-qfam": `
name = "handshake-flood-qfam"
description = "Handshake flooding with full server flights: fresh SCIDs per tuple and ~3x amplified responses (the un-mitigated QFAM baseline)"

[[phases]]
kind = "scan"
label = "recon"
sources = 900
visits_mean = 1.1
diurnal = true
versions = [{version = "v1", share = 0.6}, {version = "draft-29", share = 0.4}]

[[phases]]
kind = "flood"
label = "google-wave"
vector = "quic"
attacks = 1400
amplification = 3.0
scid_policy = "fresh"
versions = [{version = "draft-29", share = 0.8}, {version = "v1", share = 0.2}]
[phases.victims]
org = "Google"
size = 160
skew = 1.15
[phases.duration]
median_sec = 180
sigma = 0.7
[phases.rate]
base_pps = 0.4
peak_pkts = 260
shape = "burst"

[[phases]]
kind = "flood"
label = "cdn-wave"
vector = "quic"
attacks = 500
amplification = 2.0
scid_policy = "fresh"
[phases.victims]
org = "any"
size = 120
skew = 1.3
[phases.rate]
base_pps = 0.3
peak_pkts = 160

[[phases]]
kind = "misconfig"
sources = 400
`,

	// The same flood pressure against Retry-mitigated victims: the
	// server answers statelessly with Retry crypto challenges, so the
	// backscatter collapses to small Retry datagrams with pooled
	// contexts and no amplification.
	"retry-mitigated-flood": `
name = "retry-mitigated-flood"
description = "Handshake floods against Retry-mitigated victims: stateless crypto challenges, ~1x amplification, small Retry backscatter"

[[phases]]
kind = "flood"
label = "mitigated"
vector = "quic"
attacks = 1400
retry_mitigation = true
scid_policy = "pooled"
versions = [{version = "v1", share = 0.7}, {version = "draft-29", share = 0.3}]
[phases.victims]
org = "Google"
size = 160
skew = 1.15
[phases.duration]
median_sec = 180
sigma = 0.7
[phases.rate]
base_pps = 0.4
peak_pkts = 260

[[phases]]
kind = "flood"
label = "unmitigated-rest"
vector = "quic"
attacks = 350
scid_policy = "mixed"
versions = [{version = "mvfst-draft-27", share = 0.9}, {version = "draft-29", share = 0.1}]
[phases.victims]
org = "Facebook"
size = 60
skew = 1.2
[phases.rate]
base_pps = 0.3
peak_pkts = 140

[[phases]]
kind = "misconfig"
sources = 300
`,

	// Version-heterogeneous scan campaigns: three staggered waves move
	// the population from draft-27 through draft-29 to v1, the
	// deployment churn "A First Look at QUIC in the Wild"
	// (arXiv:1801.05168) observed — over two research sweeps.
	"versionneg-scan-campaign": `
name = "versionneg-scan-campaign"
description = "Version-heterogeneous scan campaign: staggered draft-27 / draft-29 / v1 waves over two research sweeps"

[[phases]]
kind = "research-scan"
sweeps = 2
sweep_hours = 8

[[phases]]
kind = "scan"
label = "wave-draft27"
sources = 1500
start_sec = 0
dur_sec = 864000 # days 0-10
versions = [{version = "draft-27", share = 0.7}, {version = "mvfst-draft-27", share = 0.3}]

[[phases]]
kind = "scan"
label = "wave-draft29"
sources = 2400
start_sec = 777600 # days 9-19
dur_sec = 864000
versions = [{version = "draft-29", share = 0.8}, {version = "draft-27", share = 0.2}]

[[phases]]
kind = "scan"
label = "wave-v1"
sources = 3200
start_sec = 1641600 # day 19 onward
versions = [{version = "v1", share = 0.75}, {version = "draft-29", share = 0.25}]

[[phases]]
kind = "misconfig"
sources = 900
visits_mean = 4.0
`,

	// A compressed multi-vector event: QUIC floods inside a 60-hour
	// window, paired with concurrent/sequential TCP and ICMP attacks on
	// the same victims, over an Internet-wide common-flood floor.
	"multi-vector-burst": `
name = "multi-vector-burst"
description = "60-hour QUIC flood burst with paired TCP/ICMP attacks over an Internet-wide common-flood floor"

[[phases]]
kind = "flood"
label = "quic-burst"
vector = "quic"
attacks = 900
start_sec = 1036800 # day 12
dur_sec = 216000    # 60 hours
scid_policy = "mixed"
pair = {concurrent_share = 0.55, sequential_share = 0.36}
[phases.victims]
org = "any"
size = 110
skew = 1.2
[phases.duration]
median_sec = 240
sigma = 0.8
[phases.rate]
base_pps = 0.35
peak_pkts = 200
shape = "ramp"

[[phases]]
kind = "flood"
label = "common-floor"
vector = "common-mix"
attacks = 20000
[phases.victims]
org = "internet"
size = 4000
skew = 1.5
[phases.rate]
base_pps = 0.1
peak_pkts = 80
shape = "square"

[[phases]]
kind = "scan"
sources = 1200
diurnal = true

[[phases]]
kind = "misconfig"
sources = 500
`,
}

var (
	builtinOnce   sync.Once
	builtinParsed map[string]*Scenario
	builtinErr    error
)

func parseBuiltins() {
	builtinParsed = make(map[string]*Scenario, len(builtinSpecs))
	for name, spec := range builtinSpecs {
		sc, err := Load([]byte(spec))
		if err != nil {
			builtinErr = fmt.Errorf("scenario: built-in %q: %w", name, err)
			return
		}
		if sc.Name != name {
			builtinErr = fmt.Errorf("scenario: built-in %q names itself %q", name, sc.Name)
			return
		}
		builtinParsed[name] = sc
	}
}

// Builtin returns a built-in scenario by name. Every call re-parses
// the spec into a fresh value: callers may tweak the result for an
// experiment without poisoning the process-wide registry (whose frozen
// contents the golden corpus depends on).
func Builtin(name string) (*Scenario, error) {
	builtinOnce.Do(parseBuiltins)
	if builtinErr != nil {
		return nil, builtinErr
	}
	if _, ok := builtinParsed[name]; !ok {
		return nil, fmt.Errorf("scenario: unknown built-in %q (have: %v)", name, Builtins())
	}
	return Load([]byte(builtinSpecs[name]))
}

// Builtins lists the built-in scenario names, sorted.
func Builtins() []string {
	out := make([]string, 0, len(builtinSpecs))
	for name := range builtinSpecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns a one-line "name — description" listing of every
// built-in, for CLI help. A broken registry is an error, not a listing
// line — callers must not exit 0 over it.
func Describe() ([]string, error) {
	builtinOnce.Do(parseBuiltins)
	if builtinErr != nil {
		return nil, builtinErr
	}
	out := make([]string, 0, len(builtinParsed))
	for _, name := range Builtins() {
		out = append(out, fmt.Sprintf("%-26s %s", name, builtinParsed[name].Description))
	}
	return out, nil
}
