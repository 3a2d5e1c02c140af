package scenario

// Compilation turns a validated Scenario into a scheduled ibr
// generator. Everything declarative resolves here, at setup time —
// victim pools against the census, version-mix strings into wire
// versions, SCID policies into pooling ratios, rate shapes into event
// builder knobs — so the streaming hot path runs the same
// allocation-free event sources as the paper schedule.
//
// Determinism contract: phases compile in spec order, each under an
// index-qualified RNG label, so a (seed, scenario) pair fixes the
// entire month bit-for-bit — independent of worker count, and of
// whether packets are generated live or replayed from a checkpoint.

import (
	"fmt"

	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/wire"
)

// Compile schedules the scenario onto a generator built from cfg. A nil
// scenario and paper-2021 map to the hard-coded paper month (ibr.New);
// everything else compiles phase by phase onto an empty generator.
func Compile(sc *Scenario, cfg ibr.Config) (*ibr.Generator, error) {
	if sc == nil {
		return ibr.New(cfg)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Paper {
		return ibr.New(cfg)
	}
	g, err := ibr.NewEmpty(cfg)
	if err != nil {
		return nil, err
	}
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		name := ph.Label
		if name == "" {
			name = ph.Kind
		}
		label := fmt.Sprintf("%d/%s", i, name)
		if err := compilePhase(g, ph, label); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %d (%s): %w", sc.Name, i, name, err)
		}
	}
	return g, nil
}

func compilePhase(g *ibr.Generator, ph *Phase, label string) error {
	start, dur := ph.Window()
	switch ph.Kind {
	case KindResearchScan:
		g.AddResearchPlan(label, ibr.ResearchPlan{
			Sweeps:     ph.Sweeps,
			SweepHours: ph.SweepHours,
			StartSec:   start,
			DurSec:     dur,
		})
	case KindScan:
		versions, weights := versionMix(ph.Versions)
		tagShare := -1.0 // unset: the plan's 2.3 % default
		if ph.TagShare != nil {
			tagShare = *ph.TagShare
		}
		g.AddScanPlan(label, ibr.ScanPlan{
			Bots:            ph.Sources,
			Versions:        versions,
			VersionWeights:  weights,
			VisitsMean:      ph.VisitsMean,
			PacketsPerVisit: ph.PacketsPerVisit,
			Diurnal:         ph.Diurnal,
			NoPayload:       ph.NoPayload,
			TagShare:        tagShare,
			StartSec:        start,
			DurSec:          dur,
		})
	case KindFlood:
		victims, err := resolveVictims(g, ph.Victims, label)
		if err != nil {
			return err
		}
		versions, weights := versionMix(ph.Versions)
		events := g.AddFloodPlan(label, ibr.FloodPlan{
			Vector:         vectorOf(ph.Vector),
			Attacks:        ph.Attacks,
			Victims:        victims,
			Skew:           ph.Victims.Skew,
			Versions:       versions,
			VersionWeights: weights,
			DurMedianSec:   ph.Duration.MedianSec,
			DurSigma:       ph.Duration.Sigma,
			BasePPS:        ph.Rate.BasePPS,
			PeakPkts:       ph.Rate.PeakPkts,
			Shape:          shapeOf(ph.Rate.Shape),
			SCIDRatio:      scidRatioOf(ph),
			RetryMitigated: ph.RetryMitigation,
			Amplification:  ph.Amplification,
			StartSec:       start,
			DurSec:         dur,
		})
		if ph.Pair != nil {
			g.AddPairedCommon(label+"/pair", events, ibr.PairPlan{
				ConcurrentShare: ph.Pair.ConcurrentShare,
				SequentialShare: ph.Pair.SequentialShare,
			})
		}
	case KindMisconfig:
		g.AddMisconfigPlan(label, ibr.MisconfigPlan{
			Sources:    ph.Sources,
			VisitsMean: ph.VisitsMean,
			StartSec:   start,
			DurSec:     dur,
		})
	default: // unreachable after Validate
		return fmt.Errorf("unknown kind %q", ph.Kind)
	}
	return nil
}

// versionMix resolves a validated version-share list; empty mixes keep
// the plan defaults.
func versionMix(shares []VersionShare) ([]wire.Version, []float64) {
	if len(shares) == 0 {
		return nil, nil
	}
	versions := make([]wire.Version, len(shares))
	weights := make([]float64, len(shares))
	for i, vs := range shares {
		versions[i] = versionByName[vs.Version]
		weights[i] = vs.Share
	}
	return versions, weights
}

func vectorOf(s string) int {
	switch s {
	case "tcp":
		return ibr.VectorTCP
	case "icmp":
		return ibr.VectorICMP
	case "common-mix":
		return ibr.VectorCommonMix
	default:
		return ibr.VectorQUIC
	}
}

func shapeOf(s string) uint8 {
	switch s {
	case "square":
		return ibr.ShapeSquare
	case "ramp":
		return ibr.ShapeRamp
	default:
		return ibr.ShapeBurst
	}
}

// scidRatioOf maps the pooling policy onto the fresh-SCID probability:
// "fresh" models per-connection contexts (Google's anatomy in Figure
// 9), "pooled" mvfst-style context reuse, "mixed" the population
// average. An explicit scid_ratio wins — including an explicit 0
// (never fresh, always pool).
func scidRatioOf(ph *Phase) float64 {
	if ph.SCIDRatio != nil {
		return *ph.SCIDRatio
	}
	switch ph.SCIDPolicy {
	case "fresh":
		return 0.95
	case "pooled":
		return 0.30
	default:
		return 0.6
	}
}

// resolveVictims draws the phase's victim pool. Org pools come from
// the census; "unknown" draws content hosts the census missed;
// "internet" reproduces the paper's common-flood victim mix across all
// network classes.
func resolveVictims(g *ibr.Generator, pool VictimPool, label string) ([]ibr.VictimRef, error) {
	rng := g.ForkRNG(label + "/victims")
	census := g.Census()
	in := g.Internet()
	size := g.Scaled(float64(pool.Size))

	// drawDistinct fills a pool from an address generator with a
	// bounded try budget: an oversized pool (huge Scale against a
	// finite address space) degrades to fewer victims, like
	// ibr.PickDistinctVictims, instead of spinning forever. ok=false
	// draws are skipped (e.g. census hits for the "unknown" pool).
	drawDistinct := func(draw func() (netmodel.Addr, string, bool)) []ibr.VictimRef {
		out := make([]ibr.VictimRef, 0, size)
		seen := make(map[netmodel.Addr]bool, size)
		for tries := 0; len(out) < size && tries < 64*size+1024; tries++ {
			a, org, ok := draw()
			if !ok || seen[a] {
				continue
			}
			seen[a] = true
			out = append(out, ibr.VictimRef{Addr: a, Org: org})
		}
		return out
	}

	var out []ibr.VictimRef
	switch pool.Org {
	case "", "any":
		out = ibr.PickDistinctVictims(census.Servers, size, rng)
	case "unknown":
		out = drawDistinct(func() (netmodel.Addr, string, bool) {
			a := in.RandomHostOf(netmodel.ASNCloudflare, rng)
			return a, "Unknown", !census.IsKnown(a)
		})
	case "internet":
		out = drawDistinct(func() (netmodel.Addr, string, bool) {
			a := ibr.RandomCommonVictim(in, rng)
			// Hosts outside the census keep the VictimRef contract's
			// "Unknown" label rather than an empty org.
			org := census.OrgOf(a)
			if org == "" {
				org = "Unknown"
			}
			return a, org, true
		})
	default:
		servers := census.ByOrg(pool.Org)
		if len(servers) == 0 {
			return nil, fmt.Errorf("no census servers for org %q", pool.Org)
		}
		out = ibr.PickDistinctVictims(servers, size, rng)
	}
	if len(out) == 0 {
		// An empty pool would make AddFloodPlan silently drop the whole
		// phase — fail as loudly as an unknown org does.
		return nil, fmt.Errorf("victim pool %q resolved to zero hosts", pool.Org)
	}
	return out, nil
}
