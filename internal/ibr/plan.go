package ibr

// This file is the generator's exported scheduling surface: the
// scenario compiler (internal/scenario) turns declarative phase specs
// into Add*Plan calls on a NewEmpty generator. Each call forks the
// root RNG under a caller-supplied label, so a given (seed, sequence
// of labelled plans) is bit-reproducible and inserting a new phase
// never perturbs the draws of phases before it. The paper's hard-coded
// schedule (New) and these plans share every event source — botSpec,
// floodSpec, researchScan, misconfigSpec — so scenario-driven months
// ride the same allocation-free hot path.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quicsand/internal/activescan"
	"quicsand/internal/netmodel"
	"quicsand/internal/wire"
)

// Flood vectors for FloodPlan.
const (
	VectorQUIC = 0
	VectorTCP  = 1
	VectorICMP = 2
	// VectorCommonMix draws TCP or ICMP per attack with the paper's
	// 80/20 mix.
	VectorCommonMix = 3
)

// VictimRef is one resolved flood victim with its ground-truth
// organisation label (census org, or "Unknown").
type VictimRef struct {
	Addr netmodel.Addr
	Org  string
}

// FloodEvent records one scheduled attack, for multi-vector pairing.
type FloodEvent struct {
	Victim   netmodel.Addr
	StartSec float64
	DurSec   float64
}

// planRNG forks the deterministic RNG stream for a labelled plan.
func (g *Generator) planRNG(label string) *netmodel.RNG {
	return g.root.Fork("plan/" + label)
}

// ForkRNG exposes the labelled fork to the scenario compiler (victim
// pool resolution draws from it). Calls advance the root stream, so
// they are part of the deterministic plan sequence.
func (g *Generator) ForkRNG(label string) *netmodel.RNG { return g.planRNG(label) }

// ResolveWindow resolves a (start, dur) pair against the measurement
// month — dur <= 0 means "to the end of the month", out-of-range
// values clamp into it. It is the single window resolver shared by the
// plan schedulers and scenario validation (Phase.Window), so the two
// layers can never drift apart.
func ResolveWindow(startSec, durSec float64) (float64, float64) {
	if startSec < 0 {
		startSec = 0
	}
	if startSec > measurementSeconds-1 {
		startSec = measurementSeconds - 1
	}
	if durSec <= 0 || startSec+durSec > measurementSeconds {
		durSec = measurementSeconds - startSec
	}
	return startSec, durSec
}

// ---------------------------------------------------------------------------
// Research sweeps

// DefaultSweepHours is the research-sweep duration applied when a
// ResearchPlan leaves SweepHours unset. scenario.Validate checks
// defaulted sweeps against their window with this same value.
const DefaultSweepHours = 10

// ResearchPlan schedules extra full-IPv4 research sweeps (thinned by
// Config.ResearchThin, like the paper's TUM/RWTH scanners).
type ResearchPlan struct {
	Sweeps     int     // sweeps across the window (not scaled; thinning bounds cost)
	SweepHours float64 // duration of one sweep (default DefaultSweepHours)
	StartSec   float64 // window start offset
	DurSec     float64 // window length; 0 = rest of month
}

// AddResearchPlan spreads the sweeps evenly (with jitter) over the
// window, alternating between the TUM and RWTH scanner hosts. It is a
// no-op when Config.SkipResearch is set.
func (g *Generator) AddResearchPlan(label string, p ResearchPlan) {
	// Fork unconditionally, like the paper schedule's "research" fork:
	// a skipped phase must consume its root draw anyway, or
	// SkipResearch would reshuffle every later phase of the scenario
	// instead of only dropping the sweeps.
	rng := g.planRNG(label)
	if g.cfg.SkipResearch || p.Sweeps <= 0 {
		return
	}
	if p.SweepHours <= 0 {
		p.SweepHours = DefaultSweepHours
	}
	start, dur := ResolveWindow(p.StartSec, p.DurSec)
	sweepSec := p.SweepHours * 3600
	if sweepSec > dur {
		// Never overrun the window (or the month): a sweep longer than
		// the phase is compressed into it. scenario.Validate rejects
		// such specs up front; this guards direct plan callers.
		sweepSec = dur
	}
	avail := dur - sweepSec

	tum := g.cfg.Internet.Registry.ByASN(netmodel.ASNTUM).Prefixes[0].Nth(77)
	rwth := g.cfg.Internet.Registry.ByASN(netmodel.ASNRWTH).Prefixes[0].Nth(42)
	for _, h := range []netmodel.Addr{tum, rwth} {
		if !containsAddr(g.Truth.ResearchHosts, h) {
			g.Truth.ResearchHosts = append(g.Truth.ResearchHosts, h)
		}
	}
	for i := 0; i < p.Sweeps; i++ {
		host := tum
		if i%2 == 1 {
			host = rwth
		}
		frac := (float64(i) + 0.1 + 0.8*rng.Float64()) / float64(p.Sweeps)
		at := start + frac*avail
		scan := newResearchScan(
			rng.Fork(fmt.Sprintf("sweep/%d", i)), host, at,
			time.Duration(sweepSec*float64(time.Second)), g.cfg.ResearchThin)
		g.sources = append(g.sources, scan)
		g.recordResearch(label, scan, sweepSec)
	}
}

// ---------------------------------------------------------------------------
// Scanning bots

// ScanPlan schedules a wave of scanning bots.
type ScanPlan struct {
	Bots            int            // distinct bot addresses (scaled)
	ASNs            []uint32       // source networks; default: all eyeball ASes
	Versions        []wire.Version // per-bot version mix
	VersionWeights  []float64      // parallel to Versions
	VisitsMean      float64        // mean extra visits per bot (+1); default 1.25
	PacketsPerVisit int            // mean packets per session; default 11
	Diurnal         bool           // draw visits with the 06:00/18:00 double peak (whole month)
	NoPayload       bool           // omit QUIC payload bytes (metadata-only scans)
	TagShare        float64        // share of bots the GreyNoise join tags; < 0 = the 2.3% default, 0 = none
	StartSec        float64        // visit window (ignored when Diurnal)
	DurSec          float64
}

// AddScanPlan schedules the bots and records them in the ground truth.
func (g *Generator) AddScanPlan(label string, p ScanPlan) {
	rng := g.planRNG(label)
	in := g.cfg.Internet
	n := g.scaled(float64(p.Bots))
	if p.Bots <= 0 {
		return
	}
	asns := p.ASNs
	if len(asns) == 0 {
		asns = in.EyeballASNs
	}
	versions, weights := p.Versions, p.VersionWeights
	if len(versions) == 0 {
		versions = []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27}
		weights = []float64{0.5, 0.3, 0.1, 0.1}
	}
	if p.VisitsMean <= 0 {
		p.VisitsMean = calBotVisitsMean
	}
	if p.PacketsPerVisit <= 0 {
		p.PacketsPerVisit = 11
	}
	tagShare := p.TagShare
	if tagShare < 0 {
		tagShare = 0.023
	}
	start, dur := ResolveWindow(p.StartSec, p.DurSec)
	avail := dur - 600 // leave room for the session tail
	if avail < 1 {
		avail = 1
	}

	for i := 0; i < n; i++ {
		src := in.RandomHostOf(asns[rng.Intn(len(asns))], rng)
		nVisits := 1 + int(rng.Exp(p.VisitsMean))
		if nVisits > 12 {
			nVisits = 12
		}
		visits := make([]float64, nVisits)
		for j := range visits {
			if p.Diurnal {
				visits[j] = diurnalOffset(rng)
			} else {
				visits[j] = start + rng.Float64()*avail
			}
		}
		sort.Float64s(visits)
		bot := &botSpec{
			src:      src,
			version:  versions[rng.Pick(weights)],
			visits:   visits,
			pktsPer:  p.PacketsPerVisit,
			srcPort:  uint16(1024 + rng.Intn(60000)),
			rng:      rng.ForkIndexed("bot", i),
			tpl:      g.tpl,
			withload: !p.NoPayload,
		}
		g.sources = append(g.sources, bot)
		g.recordBot(label, bot)
		g.Truth.BotAddrs = append(g.Truth.BotAddrs, src)
		if rng.Float64() < tagShare {
			g.Truth.TaggedBots[src] = append(g.Truth.TaggedBots[src], drawBotTag(rng))
		}
	}
}

// drawBotTag draws the §6 GreyNoise tag mixture.
func drawBotTag(rng *netmodel.RNG) string {
	switch x := rng.Float64(); {
	case x > 0.75:
		return "Eternalblue"
	case x > 0.55:
		return "SSH Bruteforcer"
	default:
		return "Mirai"
	}
}

// ---------------------------------------------------------------------------
// Floods

// FloodPlan schedules flood events against a resolved victim pool.
type FloodPlan struct {
	Vector         int         // VectorQUIC, VectorTCP, VectorICMP or VectorCommonMix
	Attacks        int         // attack events (scaled)
	Victims        []VictimRef // resolved pool (see scenario.Compile)
	Skew           float64     // Pareto alpha of victim popularity; 0 = uniform coverage
	Versions       []wire.Version
	VersionWeights []float64
	DurMedianSec   float64 // lognormal attack-duration median; default 260
	DurSigma       float64 // lognormal sigma; default 0.85
	BasePPS        float64 // sustained backscatter rate; default 0.25
	PeakPkts       int     // mean packets in the peak minute; default 120
	Shape          uint8   // ShapeBurst (default), ShapeSquare, ShapeRamp
	SCIDRatio      float64 // fresh-SCID probability per tuple; < 0 = the 0.6 default, 0 = always pool (QUIC)
	RetryMitigated bool    // victim answers with Retry crypto challenges (QUIC)
	Amplification  float64 // mean response datagrams per arrival; <1 = 1
	StartSec       float64 // scheduling window
	DurSec         float64 // 0 = rest of month
}

// AddFloodPlan schedules the attacks, updates the ground truth, and
// returns the scheduled events for multi-vector pairing.
func (g *Generator) AddFloodPlan(label string, p FloodPlan) []FloodEvent {
	rng := g.planRNG(label)
	n := g.scaled(float64(p.Attacks))
	if p.Attacks <= 0 || len(p.Victims) == 0 {
		return nil
	}
	if p.DurMedianSec <= 0 {
		p.DurMedianSec = 260
	}
	if p.DurSigma <= 0 {
		p.DurSigma = 0.85
	}
	if p.BasePPS <= 0 {
		p.BasePPS = 0.25
	}
	if p.PeakPkts <= 0 {
		p.PeakPkts = 120
	}
	if p.SCIDRatio < 0 {
		p.SCIDRatio = 0.6
	}
	versions, weights := p.Versions, p.VersionWeights
	if len(versions) == 0 {
		versions = []wire.Version{wire.Version1, wire.VersionDraft29}
		weights = []float64{0.6, 0.4}
	}
	start, dur := ResolveWindow(p.StartSec, p.DurSec)

	victims := assignVictimRefs(p.Victims, n, p.Skew, rng.Fork("victims"))
	events := make([]FloodEvent, 0, n)
	for i, v := range victims {
		vector := p.Vector
		if vector == VectorCommonMix {
			vector = VectorTCP
			if rng.Float64() < 0.2 {
				vector = VectorICMP
			}
		}
		// One magnitude couples duration, rate and budget so large
		// attacks are large in every dimension (the Figure 10 tail).
		mag := rng.LogNormal(0, 0.75)
		atkDur := clampF(rng.LogNormal(math.Log(p.DurMedianSec), p.DurSigma)*math.Pow(mag, 0.5), 65, 90000)
		if atkDur > dur-1 {
			atkDur = dur - 1
		}
		avail := dur - atkDur
		if avail < 0 {
			avail = 0
		}
		atkStart := start + rng.Float64()*avail

		peak := int(float64(p.PeakPkts) * mag)
		peak = clampInt(peak, 6, 5000)
		base := int(atkDur * p.BasePPS * mag)
		if floor := int(atkDur * 0.04); base < floor {
			// Floods sustain backscatter for their whole duration: the
			// floor keeps sessions from fragmenting at the 5-minute
			// timeout.
			base = floor
		}
		if base > 20000 {
			base = 20000
		}

		var nAddrs, nPorts int
		if vector == VectorQUIC {
			nAddrs = clampInt(1+int(rng.Pareto(1.2, 1.2)), 1, 20)
			nPorts = clampInt(3+int(rng.Pareto(15, 1.1)), 1, 200)
		} else {
			nAddrs = clampInt(2+int(rng.Pareto(2, 1.1)), 1, 64)
			nPorts = 1 + rng.Intn(64)
		}

		amp := 1
		if p.Amplification > 1 {
			amp = int(p.Amplification)
			if frac := p.Amplification - float64(amp); frac > 1e-9 && rng.Float64() < frac {
				amp++
			}
		}

		spec := &floodSpec{
			vector: vector, victim: v.Addr,
			version:  versions[rng.Pick(weights)],
			startSec: atkStart, durSec: atkDur,
			peakPkts: peak, basePkts: base,
			nAddrs: nAddrs, nPorts: nPorts, scidRatio: p.SCIDRatio,
			rng: rng.ForkIndexed("atk", i), tpl: g.tpl,
			shape: p.Shape, amp: amp, retryMitigated: p.RetryMitigated,
		}
		g.sources = append(g.sources, spec)
		g.recordFlood(label, spec, v.Org)

		if vector == VectorQUIC {
			g.Truth.QUICAttacks++
			g.Truth.QUICVictims[v.Addr] = v.Org
		} else {
			g.Truth.CommonAttacks++
		}
		events = append(events, FloodEvent{Victim: v.Addr, StartSec: atkStart, DurSec: atkDur})
	}
	return events
}

// assignVictimRefs distributes n attacks over the pool. skew <= 0
// cycles the pool for even coverage; skew > 0 reproduces the paper's
// Figure 6 split — a cold majority hit exactly once and a hot set
// absorbing the rest with Pareto(1, skew) popularity.
func assignVictimRefs(pool []VictimRef, n int, skew float64, rng *netmodel.RNG) []VictimRef {
	if len(pool) == 0 || n <= 0 {
		return nil
	}
	out := make([]VictimRef, 0, n)
	if skew <= 0 {
		for len(out) < n {
			take := n - len(out)
			if take > len(pool) {
				take = len(pool)
			}
			out = append(out, pool[:take]...)
		}
	} else {
		nCold := len(pool) * 3 / 5
		hot := pool[:len(pool)-nCold]
		cold := pool[len(pool)-nCold:]
		if len(hot) == 0 {
			hot = pool
		}
		hotWeights := make([]float64, len(hot))
		for i := range hotWeights {
			hotWeights[i] = rng.Pareto(1, skew)
		}
		for i := 0; i < len(cold) && len(out) < n; i++ {
			out = append(out, cold[i])
		}
		popularity := netmodel.NewSampler(hotWeights)
		for len(out) < n {
			out = append(out, hot[popularity.Pick(rng)])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---------------------------------------------------------------------------
// Multi-vector pairing

// PairPlan schedules TCP/ICMP attacks correlated with already-scheduled
// QUIC flood events (Figures 8/12/13).
type PairPlan struct {
	// Shares of the QUIC attack mass paired concurrently and
	// sequentially; the remainder stays QUIC-only. Their sum must be
	// in (0, 1].
	ConcurrentShare float64
	SequentialShare float64
}

// AddPairedCommon mirrors the paper's pairing: victims covering the
// QUIC-only share are exempted first (QUIC-only is a victim property),
// then each remaining event draws a concurrent or sequential partner.
func (g *Generator) AddPairedCommon(label string, events []FloodEvent, p PairPlan) {
	rng := g.planRNG(label) // fork before any guard: see AddResearchPlan
	if len(events) == 0 || p.ConcurrentShare+p.SequentialShare <= 0 {
		return
	}
	g.pairCommonEvents(rng, events, p.ConcurrentShare, p.SequentialShare, "pair", label)
}

// addCommonFlood schedules one TCP/ICMP attack with the paper's
// common-flood profile — the single source of truth shared by the
// hard-coded schedule's pairing and independent fills and by scenario
// PairPlans (a calibration change here moves every path together).
// ledgerLabel tags the scheduled event in the ledger; forkPrefix is
// part of the frozen RNG fork naming and must never change with it.
func (g *Generator) addCommonFlood(rng *netmodel.RNG, victim netmodel.Addr, start, dur float64, forkPrefix string, idx int, ledgerLabel string) {
	vector := VectorTCP
	if rng.Float64() < 0.2 {
		vector = VectorICMP
	}
	magnitude := rng.LogNormal(0, 0.9)
	peak := 40 + int(rng.Pareto(8, 1.3)*magnitude)
	if peak > 2000 {
		peak = 2000
	}
	baseRate := rng.Exp(0.02) * magnitude
	if baseRate < 0.04 {
		baseRate = 0.04
	}
	base := int(dur * baseRate)
	if base > 4000 {
		base = 4000
	}
	nAddrs := 2 + int(rng.Pareto(2, 1.1))
	if nAddrs > 64 {
		nAddrs = 64
	}
	spec := &floodSpec{
		vector: vector, victim: victim,
		startSec: start, durSec: dur,
		peakPkts: peak, basePkts: base,
		nAddrs: nAddrs, nPorts: 1 + rng.Intn(64),
		rng: rng.ForkIndexed(forkPrefix, idx), tpl: g.tpl,
	}
	g.sources = append(g.sources, spec)
	g.recordFlood(ledgerLabel, spec, "")
	g.Truth.CommonAttacks++
}

// pairCommonEvents is the shared multi-vector pairing engine: the
// QUIC-only exemption scan, then per-event concurrent/sequential
// partner draws (Figures 8/12/13). It returns the next fork index so
// the paper schedule can continue numbering its independent fills.
func (g *Generator) pairCommonEvents(rng *netmodel.RNG, events []FloodEvent, cShare, sShare float64, forkPrefix, ledgerLabel string) int {
	byVictim := make(map[netmodel.Addr]int)
	for _, e := range events {
		byVictim[e.Victim]++
	}
	victims := make([]netmodel.Addr, 0, len(byVictim))
	for v := range byVictim {
		victims = append(victims, v)
	}
	// Exemption scan order: fewest attacks first, address tie-break.
	sort.Slice(victims, func(i, j int) bool {
		if byVictim[victims[i]] != byVictim[victims[j]] {
			return byVictim[victims[i]] < byVictim[victims[j]]
		}
		return victims[i] < victims[j]
	})
	quicOnlyTarget := int(float64(len(events)) * (1 - cShare - sShare))
	quicOnly := make(map[netmodel.Addr]bool)
	covered := 0
	for _, v := range victims {
		if covered >= quicOnlyTarget {
			break
		}
		quicOnly[v] = true
		covered += byVictim[v]
	}

	idx := 0
	for _, e := range events {
		if quicOnly[e.Victim] {
			g.Truth.QUICOnly++
			idx++
			continue
		}
		x := rng.Float64() * (cShare + sShare)
		if x < cShare {
			g.Truth.Concurrent++
			dur := clampF(rng.LogNormal(math.Log(1499), 1.0), e.DurSec*0.3+61, 90000)
			var start float64
			if rng.Float64() < 0.78 {
				// Full containment: the common attack brackets the
				// QUIC flood (Figure 12's dominant mode).
				lead := 1 + rng.Exp(0.15*e.DurSec+30)
				start = e.StartSec - lead
				if dur < e.DurSec+lead+60 {
					dur = e.DurSec + lead + 60 + rng.Exp(120)
				}
			} else {
				// Partial overlap: start inside the QUIC attack.
				start = e.StartSec + e.DurSec*(0.15+0.7*rng.Float64())
			}
			if start < 0 {
				start = 0
			}
			g.addCommonFlood(rng, e.Victim, start, dur, forkPrefix, idx, ledgerLabel)
		} else {
			g.Truth.Sequential++
			gap := clampF(rng.LogNormal(math.Log(9*3600), 1.9), 400, 28*86400)
			dur := clampF(rng.LogNormal(math.Log(1499), 1.2), 65, 90000)
			var start float64
			if rng.Float64() < 0.5 {
				start = e.StartSec + e.DurSec + gap
			} else {
				start = e.StartSec - gap - dur
			}
			if start < 0 || start+dur > measurementSeconds {
				// Fold back inside the month on the other side.
				start = clampF(e.StartSec+e.DurSec+gap, 0, measurementSeconds-dur-1)
			}
			g.addCommonFlood(rng, e.Victim, start, dur, forkPrefix, idx, ledgerLabel)
		}
		idx++
	}
	return idx
}

// PickDistinctVictims draws up to n distinct census servers as victim
// refs — the single distinct-draw used by the paper schedule's per-org
// pools (scheduleQUICAttacks) and the scenario compiler's census
// pools.
func PickDistinctVictims(servers []activescan.Server, n int, rng *netmodel.RNG) []VictimRef {
	out := make([]VictimRef, 0, n)
	seen := make(map[netmodel.Addr]bool, n)
	for len(out) < n && len(seen) < len(servers) {
		s := servers[rng.Intn(len(servers))]
		if seen[s.Addr] {
			continue
		}
		seen[s.Addr] = true
		out = append(out, VictimRef{Addr: s.Addr, Org: s.Org})
	}
	return out
}

// RandomCommonVictim draws one victim with the paper's common-flood
// mixture across all network classes — content, transit, eyeball,
// enterprise, unallocated noise. Shared by the hard-coded schedule and
// the scenario compiler's "internet" victim pool.
func RandomCommonVictim(in *netmodel.Internet, r *netmodel.RNG) netmodel.Addr {
	switch x := r.Float64(); {
	case x < 0.30:
		return in.RandomHostOf(in.ContentASNs[r.Intn(len(in.ContentASNs))], r)
	case x < 0.55:
		return in.RandomHostOf(174, r) // Cogent transit space
	case x < 0.75:
		return in.RandomHostOf(in.EyeballASNs[r.Intn(len(in.EyeballASNs))], r)
	case x < 0.85:
		return in.RandomHostOf(64500, r)
	default:
		return netmodel.Addr(r.Uint32()) // unallocated noise
	}
}

// ---------------------------------------------------------------------------
// Misconfiguration noise

// MisconfigPlan schedules low-volume responder noise (Appendix B).
type MisconfigPlan struct {
	Sources    int     // responder count (scaled)
	VisitsMean float64 // mean extra visits (+1); default 5.8
	StartSec   float64 // visit window
	DurSec     float64 // 0 = rest of month
}

// AddMisconfigPlan schedules the responders over census content hosts
// that are not already flood victims (at scheduling time).
func (g *Generator) AddMisconfigPlan(label string, p MisconfigPlan) {
	rng := g.planRNG(label) // fork before any guard: see AddResearchPlan
	if p.Sources <= 0 {
		return
	}
	if p.VisitsMean <= 0 {
		p.VisitsMean = calMisconfVisits
	}
	g.scheduleMisconfigSources(rng, g.scaled(float64(p.Sources)), p.VisitsMean, p.StartSec, p.DurSec, label)
}

// scheduleMisconfigSources is the single misconfig-responder
// implementation shared by the paper schedule (scheduleMisconfig, over
// the whole month) and scenario plans (over their phase window):
// census hosts that are not flood victims, the Appendix B visit
// profile, one source per responder. The victim-exclusion
// draw is bounded so a census fully covered by victims degrades to
// victim hosts instead of spinning.
func (g *Generator) scheduleMisconfigSources(rng *netmodel.RNG, n int, visitsMean, startSec, durSec float64, ledgerLabel string) {
	census := g.cfg.Census
	if n <= 0 || len(census.Servers) == 0 {
		return
	}
	start, dur := ResolveWindow(startSec, durSec)
	avail := dur - 120 // leave room for the session tail
	if avail < 1 {
		avail = 1
	}
	for i := 0; i < n; i++ {
		var src netmodel.Addr
		for tries := 0; ; tries++ {
			s := census.Servers[rng.Intn(len(census.Servers))]
			if _, isVictim := g.Truth.QUICVictims[s.Addr]; !isVictim || tries >= len(census.Servers) {
				src = s.Addr
				break
			}
		}
		version := wire.Version1
		if s := census.Lookup(src); s != nil {
			version = s.Version
		}
		nVisits := 1 + int(rng.Exp(visitsMean))
		if nVisits > 40 {
			nVisits = 40
		}
		visits := make([]float64, nVisits)
		for j := range visits {
			visits[j] = start + rng.Float64()*avail
		}
		sort.Float64s(visits)
		spec := &misconfigSpec{
			src: src, version: version, visits: visits,
			rng: rng.ForkIndexed("misconf", i), tpl: g.tpl,
		}
		g.sources = append(g.sources, spec)
		g.recordMisconfig(ledgerLabel, spec, start)
		g.Truth.MisconfSources++
	}
}

// ---------------------------------------------------------------------------

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func containsAddr(xs []netmodel.Addr, a netmodel.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// MonthSeconds is the measurement-month length in seconds — the
// coordinate system of plan and scenario windows.
func MonthSeconds() float64 { return measurementSeconds }
