// Package scenario is the pipeline's declarative workload layer: a
// Scenario composes traffic phases — research sweeps, scanning-bot
// waves, QUIC/TCP/ICMP flood events with per-phase knobs, low-volume
// responder noise — and compiles into the scheduled sources the
// sharded engine streams (internal/ibr), so quicsand.Run, Replay and
// the capture subsystem work unchanged over any scenario.
//
// Scenarios are plain Go values, loadable from small JSON specs
// (Load), with a registry of built-ins (Builtin) — Go constructors —
// that includes the paper's April 2021 month. Compilation resolves every knob at
// setup time — victim pools, version mixes, rate curves, Retry
// mitigation, amplification — into the same event builders the paper
// schedule uses, keeping the per-packet hot path allocation-free and
// the run bit-reproducible per (seed, scenario) for any worker count
// (DESIGN.md §11).
package scenario

import (
	"fmt"
	"math"

	"quicsand/internal/ibr"
	"quicsand/internal/wire"
)

// monthSeconds is the simulated capture length every phase window must
// fit inside (shared with the plan schedulers via ibr).
var monthSeconds = ibr.MonthSeconds()

// MonthSeconds returns the measurement-month length in seconds — the
// coordinate system of phase windows.
func MonthSeconds() float64 { return monthSeconds }

// Phase kinds.
const (
	KindResearchScan = "research-scan"
	KindScan         = "scan"
	KindFlood        = "flood"
	KindMisconfig    = "misconfig"
)

// Scenario is one declarative workload: a named, ordered list of
// traffic phases over the measurement month.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Paper selects the hard-coded paper-2021 schedule (ibr.New)
	// instead of phase compilation; Phases must be empty.
	Paper  bool    `json:"paper,omitempty"`
	Phases []Phase `json:"phases,omitempty"`
}

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
// (checkForeignKnobs).
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

// Window resolves the phase's (start, dur) against the month, through
// the same resolver the plan schedulers use (ibr.ResolveWindow) —
// validation and scheduling can never disagree about a window.
// Validate separately rejects out-of-month raw values before the
// resolver's clamping can paper over them.
func (p *Phase) Window() (start, dur float64) {
	return ibr.ResolveWindow(p.StartSec, p.DurSec)
}

// versionByName maps spec names onto wire versions.
var versionByName = map[string]wire.Version{
	"v1":             wire.Version1,
	"draft-29":       wire.VersionDraft29,
	"draft-27":       wire.VersionDraft27,
	"mvfst-draft-27": wire.VersionMVFST27,
	"mvfst-27":       wire.VersionMVFST27,
}

// finite rejects NaN and ±Inf — a NaN rate would otherwise poison
// every downstream draw silently.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func checkFinite(phase int, what string, vs ...float64) error {
	for _, v := range vs {
		if !finite(v) {
			return fmt.Errorf("scenario: phase %d: %s is not a finite number", phase, what)
		}
		if v < 0 {
			return fmt.Errorf("scenario: phase %d: %s is negative", phase, what)
		}
	}
	return nil
}

// Validate checks the scenario for structural soundness: known kinds,
// windows inside the month, finite non-negative rates, resolvable
// version names, sane shares. Load calls it; programmatic scenarios
// should too before Compile.
func (s *Scenario) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil scenario")
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Paper {
		if len(s.Phases) > 0 {
			return fmt.Errorf("scenario %q: paper = true cannot carry phases", s.Name)
		}
		return nil
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

func (p *Phase) validate(i int) error {
	if err := checkFinite(i, "window",
		p.StartSec, p.DurSec); err != nil {
		return err
	}
	if p.StartSec >= monthSeconds {
		return fmt.Errorf("scenario: phase %d: start_sec %.0f beyond the month (%.0f s)", i, p.StartSec, monthSeconds)
	}
	if p.DurSec > 0 && p.StartSec+p.DurSec > monthSeconds {
		return fmt.Errorf("scenario: phase %d: window ends %.0f s past the month", i, p.StartSec+p.DurSec-monthSeconds)
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
		if err := checkFinite(i, c.name, c.v); err != nil {
			return err
		}
	}
	if p.TagShare != nil {
		if err := checkFinite(i, "tag_share", *p.TagShare); err != nil {
			return err
		}
		if *p.TagShare > 1 {
			return fmt.Errorf("scenario: phase %d: tag_share > 1", i)
		}
	}
	// Integer knobs fail as loudly on a sign typo as the float knobs
	// above do; the <= 0 default guards in ibr's plans must never
	// silently absorb a negative spec value.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"sources", p.Sources}, {"packets_per_visit", p.PacketsPerVisit},
		{"sweeps", p.Sweeps}, {"attacks", p.Attacks},
		{"victims.size", p.Victims.Size}, {"rate.peak_pkts", p.Rate.PeakPkts},
	} {
		if c.v < 0 {
			return fmt.Errorf("scenario: phase %d: %s is negative", i, c.name)
		}
	}
	if p.SCIDRatio != nil {
		if err := checkFinite(i, "scid_ratio", *p.SCIDRatio); err != nil {
			return err
		}
		if *p.SCIDRatio > 1 {
			return fmt.Errorf("scenario: phase %d: scid_ratio > 1", i)
		}
	}
	if p.Amplification > 64 {
		return fmt.Errorf("scenario: phase %d: amplification > 64", i)
	}
	if p.Amplification != 0 && p.Amplification < 1 {
		// AddFloodPlan treats anything below 1 as "no amplification";
		// accepting 0.5 would silently double the author's intent.
		return fmt.Errorf("scenario: phase %d: amplification must be >= 1 (or omitted)", i)
	}
	switch p.Kind {
	case KindResearchScan, KindScan, KindFlood, KindMisconfig:
	default:
		return fmt.Errorf("scenario: phase %d: unknown kind %q", i, p.Kind)
	}
	if err := p.checkForeignKnobs(i); err != nil {
		return err
	}
	for _, vs := range p.Versions {
		if _, ok := versionByName[vs.Version]; !ok {
			return fmt.Errorf("scenario: phase %d: unknown version %q", i, vs.Version)
		}
		if !finite(vs.Share) || vs.Share <= 0 {
			return fmt.Errorf("scenario: phase %d: version %q share must be a positive finite number", i, vs.Version)
		}
	}

	switch p.Kind {
	case KindResearchScan:
		if p.Sweeps < 1 {
			return fmt.Errorf("scenario: phase %d: research-scan needs sweeps >= 1", i)
		}
		_, dur := p.Window()
		hours := p.SweepHours
		if hours <= 0 {
			hours = ibr.DefaultSweepHours // the default must fit the window too
		}
		if hours*3600 > dur {
			return fmt.Errorf("scenario: phase %d: sweep duration (%.1f h) exceeds the phase window", i, hours)
		}
	case KindScan:
		if p.Sources < 1 {
			return fmt.Errorf("scenario: phase %d: scan needs sources >= 1", i)
		}
		if p.Diurnal && (p.StartSec != 0 || p.DurSec != 0) {
			// The diurnal draw spans the whole month; silently ignoring
			// the window would contradict the fail-loudly contract.
			return fmt.Errorf("scenario: phase %d: diurnal scans span the whole month — drop start_sec/dur_sec or diurnal", i)
		}
		if _, dur := p.Window(); dur < 900 {
			// AddScanPlan reserves 600 s for the session tail; a window
			// below that would silently collapse visits into a burst.
			return fmt.Errorf("scenario: phase %d: scan window shorter than 900 s", i)
		}
	case KindFlood:
		switch p.Vector {
		case "quic", "tcp", "icmp", "common-mix":
		default:
			return fmt.Errorf("scenario: phase %d: unknown vector %q (want quic, tcp, icmp or common-mix)", i, p.Vector)
		}
		if p.Attacks < 1 {
			return fmt.Errorf("scenario: phase %d: flood needs attacks >= 1", i)
		}
		if p.Victims.Size < 1 {
			return fmt.Errorf("scenario: phase %d: flood needs victims.size >= 1", i)
		}
		if _, dur := p.Window(); dur < 300 {
			return fmt.Errorf("scenario: phase %d: flood window shorter than 300 s", i)
		}
		if p.Vector != "quic" {
			// QUIC-only knobs on common vectors would silently do
			// nothing — the fail-loudly contract extends to them.
			switch {
			case p.RetryMitigation:
				return fmt.Errorf("scenario: phase %d: retry_mitigation applies to quic floods only", i)
			case p.SCIDPolicy != "" || p.SCIDRatio != nil:
				return fmt.Errorf("scenario: phase %d: scid knobs apply to quic floods only", i)
			case len(p.Versions) > 0:
				return fmt.Errorf("scenario: phase %d: versions apply to quic floods only", i)
			}
		}
		switch p.SCIDPolicy {
		case "", "fresh", "pooled", "mixed":
		default:
			return fmt.Errorf("scenario: phase %d: unknown scid_policy %q", i, p.SCIDPolicy)
		}
		switch p.Rate.Shape {
		case "", "burst", "square", "ramp":
		default:
			return fmt.Errorf("scenario: phase %d: unknown rate shape %q", i, p.Rate.Shape)
		}
		if p.Pair != nil {
			c, s := p.Pair.ConcurrentShare, p.Pair.SequentialShare
			if err := checkFinite(i, "pair share", c, s); err != nil {
				return err
			}
			if c+s <= 0 || c+s > 1 {
				return fmt.Errorf("scenario: phase %d: pair shares must sum into (0, 1]", i)
			}
			if p.Vector != "quic" {
				return fmt.Errorf("scenario: phase %d: pair applies to quic floods only", i)
			}
		}
	case KindMisconfig:
		if p.Sources < 1 {
			return fmt.Errorf("scenario: phase %d: misconfig needs sources >= 1", i)
		}
		if _, dur := p.Window(); dur < 300 {
			// The scheduler reserves 120 s for the session tail; a
			// shorter window would silently collapse visits into a burst.
			return fmt.Errorf("scenario: phase %d: misconfig window shorter than 300 s", i)
		}
	}
	return nil
}

// checkForeignKnobs completes the fail-loudly contract across kinds: a
// knob set on a phase whose kind never reads it (a duplicated phase
// with only `kind` changed, or a mistyped kind) is an error, never a
// silently ignored value.
func (p *Phase) checkForeignKnobs(i int) error {
	for _, k := range []struct {
		name  string
		set   bool
		kinds []string
	}{
		{"vector", p.Vector != "", []string{KindFlood}},
		{"attacks", p.Attacks != 0, []string{KindFlood}},
		{"victims", p.Victims != (VictimPool{}), []string{KindFlood}},
		{"duration", p.Duration != (Duration{}), []string{KindFlood}},
		{"rate", p.Rate != (RateCurve{}), []string{KindFlood}},
		{"scid_policy", p.SCIDPolicy != "", []string{KindFlood}},
		{"scid_ratio", p.SCIDRatio != nil, []string{KindFlood}},
		{"retry_mitigation", p.RetryMitigation, []string{KindFlood}},
		{"amplification", p.Amplification != 0, []string{KindFlood}},
		{"pair", p.Pair != nil, []string{KindFlood}},
		{"sources", p.Sources != 0, []string{KindScan, KindMisconfig}},
		{"visits_mean", p.VisitsMean != 0, []string{KindScan, KindMisconfig}},
		{"packets_per_visit", p.PacketsPerVisit != 0, []string{KindScan}},
		{"diurnal", p.Diurnal, []string{KindScan}},
		{"no_payload", p.NoPayload, []string{KindScan}},
		{"tag_share", p.TagShare != nil, []string{KindScan}},
		{"versions", len(p.Versions) != 0, []string{KindScan, KindFlood}},
		{"sweeps", p.Sweeps != 0, []string{KindResearchScan}},
		{"sweep_hours", p.SweepHours != 0, []string{KindResearchScan}},
	} {
		if !k.set {
			continue
		}
		legal := false
		for _, kind := range k.kinds {
			legal = legal || kind == p.Kind
		}
		if !legal {
			return fmt.Errorf("scenario: phase %d: %s does not apply to %s phases", i, k.name, p.Kind)
		}
	}
	return nil
}
