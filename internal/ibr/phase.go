package ibr

// A Phase is one traffic component of a scenario month (internal/scenario
// composes them; AddPhase in plan.go schedules them). This file holds
// the phase's knobs, the scheduler limits they are checked against, and
// the checks themselves: a phase that validates is one the schedulers
// can run as written, without clamping or silently dropping a knob.

import (
	"fmt"
	"math"

	"quicsand/internal/wire"
)

// Phase kinds.
const (
	KindResearchScan = "research-scan"
	KindScan         = "scan"
	KindFlood        = "flood"
	KindMisconfig    = "misconfig"
)

// Scheduler limits. Validate derives its window minimums from the tails
// the schedulers reserve, so a window that validates always leaves the
// scheduler room to spread visits.
const (
	// scanTailSec is kept free at the end of a scan window, so the
	// session of a bot's last visit ends inside it.
	scanTailSec = 600
	// minScanWindowSec leaves 300 s of visit starts before the tail.
	minScanWindowSec = scanTailSec + 300
	// misconfigTailSec is kept free at the end of a misconfig window.
	misconfigTailSec = 120
	// minMisconfigWindowSec leaves 180 s of visit starts before the tail.
	minMisconfigWindowSec = misconfigTailSec + 180
	// minFloodWindowSec is the shortest flood window.
	minFloodWindowSec = 300
	// defaultSweepHours is a research sweep's length when sweep_hours is
	// unset; the defaulted sweep must fit the window too.
	defaultSweepHours = 10
)

// VersionShare is one entry of a QUIC version mix.
type VersionShare struct {
	Version string  `json:"version"` // "v1", "draft-29", "draft-27", "mvfst-draft-27"
	Share   float64 `json:"share"`
}

// VictimPool selects the victims of a flood phase.
type VictimPool struct {
	// Org names a census organisation (e.g. "Google"), or one of the
	// pseudo-pools "any" (whole census, the default), "unknown"
	// (content hosts absent from the census) and "internet" (the
	// paper's common-flood mix across all network classes).
	Org string `json:"org,omitempty"`
	// Size is the distinct-victim count at scale 1.
	Size int `json:"size,omitempty"`
	// Skew is the Pareto alpha of victim popularity (Figure 6's
	// hot/cold split); 0 spreads attacks evenly.
	Skew float64 `json:"skew,omitempty"`
}

// Duration parameterizes the lognormal attack-duration draw.
type Duration struct {
	MedianSec float64 `json:"median_sec,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
}

// RateCurve parameterizes a flood's backscatter intensity.
type RateCurve struct {
	BasePPS  float64 `json:"base_pps,omitempty"`  // sustained rate
	PeakPkts int     `json:"peak_pkts,omitempty"` // mean peak-minute packets
	Shape    string  `json:"shape,omitempty"`     // "burst" (default), "square", "ramp"
}

// PairSpec schedules correlated TCP/ICMP partners for a QUIC flood
// phase (the multi-vector Figures 8/12/13).
type PairSpec struct {
	ConcurrentShare float64 `json:"concurrent_share"`
	SequentialShare float64 `json:"sequential_share"`
}

// Phase is one traffic component. Kind selects which knob groups
// apply; setting a knob of another kind is a validation error
// (checkForeignKnobs). A zero knob keeps its default.
type Phase struct {
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
	// StartSec/DurSec bound the phase window inside the month;
	// DurSec 0 means "to the end of the month".
	StartSec float64 `json:"start_sec,omitempty"`
	DurSec   float64 `json:"dur_sec,omitempty"`

	// scan and misconfig knobs.
	Sources         int     `json:"sources,omitempty"`
	VisitsMean      float64 `json:"visits_mean,omitempty"`
	PacketsPerVisit int     `json:"packets_per_visit,omitempty"`
	Diurnal         bool    `json:"diurnal,omitempty"`
	NoPayload       bool    `json:"no_payload,omitempty"`
	// TagShare is the share of bots the GreyNoise join tags. nil keeps
	// the paper's 2.3 % default; an explicit 0 models a wave invisible
	// to the join (a pointer, so "unset" and "zero" stay distinct).
	TagShare *float64       `json:"tag_share,omitempty"`
	Versions []VersionShare `json:"versions,omitempty"`

	// research-scan knobs.
	Sweeps     int     `json:"sweeps,omitempty"`
	SweepHours float64 `json:"sweep_hours,omitempty"`

	// flood knobs.
	Vector     string     `json:"vector,omitempty"` // "quic", "tcp", "icmp", "common-mix"
	Attacks    int        `json:"attacks,omitempty"`
	Victims    VictimPool `json:"victims,omitempty"`
	Duration   Duration   `json:"duration,omitempty"`
	Rate       RateCurve  `json:"rate,omitempty"`
	SCIDPolicy string     `json:"scid_policy,omitempty"` // "fresh", "pooled", "mixed"
	// SCIDRatio explicitly overrides the policy's fresh-SCID
	// probability; a pointer so an explicit 0 (never fresh, always
	// pool) stays distinct from unset.
	SCIDRatio       *float64  `json:"scid_ratio,omitempty"`
	RetryMitigation bool      `json:"retry_mitigation,omitempty"`
	Amplification   float64   `json:"amplification,omitempty"`
	Pair            *PairSpec `json:"pair,omitempty"`
}

// Window resolves the phase's (start, dur) against the month: dur 0
// means "to the end of the month", out-of-range values clamp into it.
// Validation and scheduling both read it, so they can never disagree
// about a window; Validate separately rejects out-of-month raw values
// before the clamping can paper over them.
func (p *Phase) Window() (start, dur float64) {
	start = min(max(p.StartSec, 0), measurementSeconds-1)
	dur = p.DurSec
	if dur <= 0 || start+dur > measurementSeconds {
		dur = measurementSeconds - start
	}
	return start, dur
}

// versionByName maps spec names onto wire versions.
var versionByName = map[string]wire.Version{
	"v1":             wire.Version1,
	"draft-29":       wire.VersionDraft29,
	"draft-27":       wire.VersionDraft27,
	"mvfst-draft-27": wire.VersionMVFST27,
	"mvfst-27":       wire.VersionMVFST27,
}

func checkFinite(what string, vs ...float64) error {
	for _, v := range vs {
		// A NaN rate would otherwise poison every downstream draw
		// silently.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is not a finite number", what)
		}
		if v < 0 {
			return fmt.Errorf("%s is negative", what)
		}
	}
	return nil
}

// Validate checks the phase for soundness: a known kind, a window
// inside the month and wide enough for its scheduler, finite
// non-negative knobs, resolvable version names, sane shares, and no
// knob of another kind. The scenario layer prefixes its errors with the
// phase's position.
func (p *Phase) Validate() error {
	if err := checkFinite("window", p.StartSec, p.DurSec); err != nil {
		return err
	}
	if p.StartSec >= measurementSeconds {
		return fmt.Errorf("start_sec %.0f beyond the month (%.0f s)", p.StartSec, measurementSeconds)
	}
	if p.DurSec > 0 && p.StartSec+p.DurSec > measurementSeconds {
		return fmt.Errorf("window ends %.0f s past the month", p.StartSec+p.DurSec-measurementSeconds)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"visits_mean", p.VisitsMean}, {"sweep_hours", p.SweepHours},
		{"duration.median_sec", p.Duration.MedianSec}, {"duration.sigma", p.Duration.Sigma},
		{"rate.base_pps", p.Rate.BasePPS}, {"victims.skew", p.Victims.Skew},
		{"amplification", p.Amplification},
	} {
		if err := checkFinite(c.name, c.v); err != nil {
			return err
		}
	}
	if p.TagShare != nil {
		if err := checkFinite("tag_share", *p.TagShare); err != nil {
			return err
		}
		if *p.TagShare > 1 {
			return fmt.Errorf("tag_share > 1")
		}
	}
	// Integer knobs fail as loudly on a sign typo as the float knobs
	// above do.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"sources", p.Sources}, {"packets_per_visit", p.PacketsPerVisit},
		{"sweeps", p.Sweeps}, {"attacks", p.Attacks},
		{"victims.size", p.Victims.Size}, {"rate.peak_pkts", p.Rate.PeakPkts},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s is negative", c.name)
		}
	}
	if p.SCIDRatio != nil {
		if err := checkFinite("scid_ratio", *p.SCIDRatio); err != nil {
			return err
		}
		if *p.SCIDRatio > 1 {
			return fmt.Errorf("scid_ratio > 1")
		}
	}
	if p.Amplification > 64 {
		return fmt.Errorf("amplification > 64")
	}
	if p.Amplification != 0 && p.Amplification < 1 {
		// Accepting 0.5 as "no amplification" would silently double
		// the author's intent.
		return fmt.Errorf("amplification must be >= 1 (or omitted)")
	}
	switch p.Kind {
	case KindResearchScan, KindScan, KindFlood, KindMisconfig:
	default:
		return fmt.Errorf("unknown kind %q", p.Kind)
	}
	if err := p.checkForeignKnobs(); err != nil {
		return err
	}
	for _, vs := range p.Versions {
		if _, ok := versionByName[vs.Version]; !ok {
			return fmt.Errorf("unknown version %q", vs.Version)
		}
		if math.IsNaN(vs.Share) || math.IsInf(vs.Share, 0) || vs.Share <= 0 {
			return fmt.Errorf("version %q share must be a positive finite number", vs.Version)
		}
	}

	_, dur := p.Window()
	switch p.Kind {
	case KindResearchScan:
		if p.Sweeps < 1 {
			return fmt.Errorf("research-scan needs sweeps >= 1")
		}
		if hours := p.sweepHours(); hours*3600 > dur {
			return fmt.Errorf("sweep duration (%.1f h) exceeds the phase window", hours)
		}
	case KindScan:
		if p.Sources < 1 {
			return fmt.Errorf("scan needs sources >= 1")
		}
		if p.Diurnal && (p.StartSec != 0 || p.DurSec != 0) {
			// The diurnal draw spans the whole month; silently ignoring
			// the window would contradict the fail-loudly contract.
			return fmt.Errorf("diurnal scans span the whole month — drop start_sec/dur_sec or diurnal")
		}
		if dur < minScanWindowSec {
			return fmt.Errorf("scan window shorter than %d s", minScanWindowSec)
		}
	case KindFlood:
		switch p.Vector {
		case "quic", "tcp", "icmp", "common-mix":
		default:
			return fmt.Errorf("unknown vector %q (want quic, tcp, icmp or common-mix)", p.Vector)
		}
		if p.Attacks < 1 {
			return fmt.Errorf("flood needs attacks >= 1")
		}
		if p.Victims.Size < 1 {
			return fmt.Errorf("flood needs victims.size >= 1")
		}
		if dur < minFloodWindowSec {
			return fmt.Errorf("flood window shorter than %d s", minFloodWindowSec)
		}
		if p.Vector != "quic" {
			// QUIC-only knobs on common vectors would silently do
			// nothing — the fail-loudly contract extends to them.
			switch {
			case p.RetryMitigation:
				return fmt.Errorf("retry_mitigation applies to quic floods only")
			case p.SCIDPolicy != "" || p.SCIDRatio != nil:
				return fmt.Errorf("scid knobs apply to quic floods only")
			case len(p.Versions) > 0:
				return fmt.Errorf("versions apply to quic floods only")
			}
		}
		switch p.SCIDPolicy {
		case "", "fresh", "pooled", "mixed":
		default:
			return fmt.Errorf("unknown scid_policy %q", p.SCIDPolicy)
		}
		switch p.Rate.Shape {
		case "", "burst", "square", "ramp":
		default:
			return fmt.Errorf("unknown rate shape %q", p.Rate.Shape)
		}
		if p.Pair != nil {
			c, s := p.Pair.ConcurrentShare, p.Pair.SequentialShare
			if err := checkFinite("pair share", c, s); err != nil {
				return err
			}
			if c+s <= 0 || c+s > 1 {
				return fmt.Errorf("pair shares must sum into (0, 1]")
			}
			if p.Vector != "quic" {
				return fmt.Errorf("pair applies to quic floods only")
			}
		}
	case KindMisconfig:
		if p.Sources < 1 {
			return fmt.Errorf("misconfig needs sources >= 1")
		}
		if dur < minMisconfigWindowSec {
			return fmt.Errorf("misconfig window shorter than %d s", minMisconfigWindowSec)
		}
	}
	return nil
}

// checkForeignKnobs completes the fail-loudly contract across kinds: a
// knob set on a phase whose kind never reads it (a duplicated phase
// with only `kind` changed, or a mistyped kind) is an error, never a
// silently ignored value.
func (p *Phase) checkForeignKnobs() error {
	for _, k := range []struct {
		name  string
		set   bool
		kinds [2]string // the kinds that read the knob
	}{
		{"vector", p.Vector != "", [2]string{KindFlood}},
		{"attacks", p.Attacks != 0, [2]string{KindFlood}},
		{"victims", p.Victims != (VictimPool{}), [2]string{KindFlood}},
		{"duration", p.Duration != (Duration{}), [2]string{KindFlood}},
		{"rate", p.Rate != (RateCurve{}), [2]string{KindFlood}},
		{"scid_policy", p.SCIDPolicy != "", [2]string{KindFlood}},
		{"scid_ratio", p.SCIDRatio != nil, [2]string{KindFlood}},
		{"retry_mitigation", p.RetryMitigation, [2]string{KindFlood}},
		{"amplification", p.Amplification != 0, [2]string{KindFlood}},
		{"pair", p.Pair != nil, [2]string{KindFlood}},
		{"sources", p.Sources != 0, [2]string{KindScan, KindMisconfig}},
		{"visits_mean", p.VisitsMean != 0, [2]string{KindScan, KindMisconfig}},
		{"packets_per_visit", p.PacketsPerVisit != 0, [2]string{KindScan}},
		{"diurnal", p.Diurnal, [2]string{KindScan}},
		{"no_payload", p.NoPayload, [2]string{KindScan}},
		{"tag_share", p.TagShare != nil, [2]string{KindScan}},
		{"versions", len(p.Versions) != 0, [2]string{KindScan, KindFlood}},
		{"sweeps", p.Sweeps != 0, [2]string{KindResearchScan}},
		{"sweep_hours", p.SweepHours != 0, [2]string{KindResearchScan}},
	} {
		if k.set && p.Kind != k.kinds[0] && p.Kind != k.kinds[1] {
			return fmt.Errorf("%s does not apply to %s phases", k.name, p.Kind)
		}
	}
	return nil
}

// sweepHours is one research sweep's length in hours.
func (p *Phase) sweepHours() float64 {
	if p.SweepHours == 0 {
		return defaultSweepHours
	}
	return p.SweepHours
}

// scidRatio maps the pooling policy onto the fresh-SCID probability:
// "fresh" models per-connection contexts (Google's anatomy in Figure
// 9), "pooled" mvfst-style context reuse, "mixed" the population
// average. An explicit scid_ratio wins — including an explicit 0
// (never fresh, always pool).
func (p *Phase) scidRatio() float64 {
	if p.SCIDRatio != nil {
		return *p.SCIDRatio
	}
	switch p.SCIDPolicy {
	case "fresh":
		return 0.95
	case "pooled":
		return 0.30
	default:
		return 0.6
	}
}
