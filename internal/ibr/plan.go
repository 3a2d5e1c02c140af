package ibr

// This file schedules scenario phases (phase.go) onto a generator:
// internal/scenario calls AddPhase once per phase on a NewEmpty
// generator. Each call forks the root RNG under the caller's label, so
// a given (seed, sequence of labelled phases) is bit-reproducible and
// inserting a phase never perturbs the draws of the phases before it.
// The paper's hard-coded schedule (New) and the phases share every
// event source — botSpec, floodSpec, researchScan, misconfigSpec — so
// scenario months ride the same allocation-free hot path.

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"time"

	"quicsand/internal/activescan"
	"quicsand/internal/netmodel"
	"quicsand/internal/wire"
)

// Flood vectors.
const (
	VectorQUIC = 0
	VectorTCP  = 1
	VectorICMP = 2
)

// victimRef is one resolved flood victim with its ground-truth
// organisation label (census org, or "Unknown").
type victimRef struct {
	addr netmodel.Addr
	org  string
}

// floodEvent records one scheduled attack, for multi-vector pairing.
type floodEvent struct {
	victim   netmodel.Addr
	startSec float64
	durSec   float64
}

// Default version mixes: a scan bot's (the paper's bots too) and a
// QUIC flood phase's.
var (
	botVersions         = []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27}
	botVersionWeights   = []float64{0.5, 0.3, 0.1, 0.1}
	floodVersions       = []wire.Version{wire.Version1, wire.VersionDraft29}
	floodVersionWeights = []float64{0.6, 0.4}
)

// planRNG forks the deterministic RNG stream for a labelled plan.
func (g *Generator) planRNG(label string) *netmodel.RNG {
	return g.root.Fork("plan/" + label)
}

// AddPhase validates p and schedules it under label. A phase forks the
// root RNG under "plan/<label>"; a flood phase forks
// "plan/<label>/victims" before it to draw its victim pool, and a
// paired one "plan/<label>/pair" after it. The scheduled events carry
// label in the ledger ("<label>/pair" for the TCP/ICMP partners).
func (g *Generator) AddPhase(label string, p *Phase) error {
	if err := p.Validate(); err != nil {
		return err
	}
	start, dur := p.Window()
	switch p.Kind {
	case KindResearchScan:
		g.addResearch(label, p, start, dur)
	case KindScan:
		g.addScan(label, p, start, dur)
	case KindFlood:
		return g.addFlood(label, p, start, dur)
	case KindMisconfig:
		rng := g.planRNG(label)
		g.scheduleMisconfigSources(rng, g.scaled(float64(p.Sources)), cmp.Or(p.VisitsMean, calMisconfVisits), start, dur, label)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Research sweeps

// addResearch spreads the phase's full-IPv4 sweeps (thinned by
// Config.ResearchThin, like the paper's TUM/RWTH scanners) evenly, with
// jitter, over the window, alternating between the TUM and RWTH
// scanner hosts. It schedules nothing when Config.SkipResearch is set.
func (g *Generator) addResearch(label string, p *Phase, start, dur float64) {
	// Fork unconditionally, like the paper schedule's "research" fork:
	// a skipped phase must consume its root draw anyway, or
	// SkipResearch would reshuffle every later phase of the scenario
	// instead of only dropping the sweeps.
	rng := g.planRNG(label)
	if g.cfg.SkipResearch {
		return
	}
	sweepSec := p.sweepHours() * 3600
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
		scan := g.scans.next()
		*scan = newResearchScan(
			rng.Fork(fmt.Sprintf("sweep/%d", i)), host, at,
			time.Duration(sweepSec*float64(time.Second)), g.cfg.ResearchThin)
		g.sources = append(g.sources, scan)
		g.recordResearch(label, scan, sweepSec)
	}
}

// ---------------------------------------------------------------------------
// Scanning bots

// addScan schedules a wave of scanning bots from the eyeball ASes and
// records them in the ground truth.
func (g *Generator) addScan(label string, p *Phase, start, dur float64) {
	rng := g.planRNG(label)
	in := g.cfg.Internet
	n := g.scaled(float64(p.Sources))
	versions, weights := versionMix(p.Versions, botVersions, botVersionWeights)
	visitsMean := cmp.Or(p.VisitsMean, calBotVisitsMean)
	tagShare := calBotTagShare
	if p.TagShare != nil {
		tagShare = *p.TagShare
	}
	avail := dur - scanTailSec

	for i := 0; i < n; i++ {
		src := in.RandomHostOf(in.EyeballASNs[rng.Intn(len(in.EyeballASNs))], rng)
		nVisits := 1 + int(rng.Exp(visitsMean))
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
		bot := g.bots.next()
		*bot = botSpec{
			src:      src,
			version:  versions[rng.Pick(weights)],
			visits:   visits,
			pktsPer:  cmp.Or(p.PacketsPerVisit, calBotPacketsPerVisit),
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

// versionMix resolves a validated version-share list, or returns the
// default mix for an empty one.
func versionMix(shares []VersionShare, defVersions []wire.Version, defWeights []float64) ([]wire.Version, []float64) {
	if len(shares) == 0 {
		return defVersions, defWeights
	}
	versions := make([]wire.Version, len(shares))
	weights := make([]float64, len(shares))
	for i, vs := range shares {
		versions[i] = versionByName[vs.Version]
		weights[i] = vs.Share
	}
	return versions, weights
}

// ---------------------------------------------------------------------------
// Floods

// addFlood resolves the phase's victim pool, schedules its attacks and
// updates the ground truth; a paired phase then schedules the TCP/ICMP
// partners of its attacks.
func (g *Generator) addFlood(label string, p *Phase, start, dur float64) error {
	pool, err := g.resolveVictims(p.Victims, label)
	if err != nil {
		return err
	}
	rng := g.planRNG(label)
	n := g.scaled(float64(p.Attacks))
	durMedian := cmp.Or(p.Duration.MedianSec, 260)
	durSigma := cmp.Or(p.Duration.Sigma, 0.85)
	basePPS := cmp.Or(p.Rate.BasePPS, 0.25)
	peakPkts := cmp.Or(p.Rate.PeakPkts, 120)
	shape := shapeOf(p.Rate.Shape)
	scidRatio := p.scidRatio()
	versions, weights := versionMix(p.Versions, floodVersions, floodVersionWeights)
	var events []floodEvent
	if p.Pair != nil {
		events = make([]floodEvent, 0, n)
	}

	for i, v := range assignVictims(pool, n, p.Victims.Skew, rng.Fork("victims")) {
		vector := VectorQUIC
		switch p.Vector {
		case "tcp":
			vector = VectorTCP
		case "icmp":
			vector = VectorICMP
		case "common-mix": // the paper's 80/20 TCP/ICMP mix, per attack
			vector = VectorTCP
			if rng.Float64() < 0.2 {
				vector = VectorICMP
			}
		}
		// One magnitude couples duration, rate and budget so large
		// attacks are large in every dimension (the Figure 10 tail).
		mag := rng.LogNormal(0, 0.75)
		atkDur := clampF(rng.LogNormal(math.Log(durMedian), durSigma)*math.Pow(mag, 0.5), 65, 90000)
		if atkDur > dur-1 {
			atkDur = dur - 1
		}
		avail := dur - atkDur
		if avail < 0 {
			avail = 0
		}
		atkStart := start + rng.Float64()*avail

		peak := int(float64(peakPkts) * mag)
		peak = clampInt(peak, 6, 5000)
		base := int(atkDur * basePPS * mag)
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

		spec := g.floods.next()
		*spec = floodSpec{
			vector: vector, victim: v.addr,
			version:  versions[rng.Pick(weights)],
			startSec: atkStart, durSec: atkDur,
			peakPkts: peak, basePkts: base,
			nAddrs: nAddrs, nPorts: nPorts, scidRatio: scidRatio,
			rng: rng.ForkIndexed("atk", i), tpl: g.tpl,
			shape: shape, amp: amp, retryMitigated: p.RetryMitigation,
		}
		g.sources = append(g.sources, spec)
		g.recordFlood(label, spec, v.org)

		if vector == VectorQUIC {
			g.Truth.QUICAttacks++
			g.Truth.QUICVictims[v.addr] = v.org
		} else {
			g.Truth.CommonAttacks++
		}
		if p.Pair != nil {
			events = append(events, floodEvent{victim: v.addr, startSec: atkStart, durSec: atkDur})
		}
	}
	if p.Pair != nil {
		pair := label + "/pair"
		g.pairCommonEvents(g.planRNG(pair), events, p.Pair.ConcurrentShare, p.Pair.SequentialShare, "pair", pair)
	}
	return nil
}

func shapeOf(s string) uint8 {
	switch s {
	case "square":
		return shapeSquare
	case "ramp":
		return shapeRamp
	default:
		return shapeBurst
	}
}

// resolveVictims draws a flood phase's victim pool from the fork
// "plan/<label>/victims". Org pools come from the census; "unknown"
// draws content hosts the census missed; "internet" reproduces the
// paper's common-flood victim mix across all network classes.
func (g *Generator) resolveVictims(pool VictimPool, label string) ([]victimRef, error) {
	rng := g.planRNG(label + "/victims")
	census := g.cfg.Census
	in := g.cfg.Internet
	size := g.scaled(float64(pool.Size))

	var out []victimRef
	switch pool.Org {
	case "", "any":
		out = pickDistinctVictims(census.Servers, size, rng)
	case "unknown":
		out = drawDistinct(size, func() (victimRef, bool) {
			a := in.RandomHostOf(netmodel.ASNCloudflare, rng)
			return victimRef{a, "Unknown"}, !census.IsKnown(a)
		})
	case "internet":
		out = drawDistinct(size, func() (victimRef, bool) {
			a := randomCommonVictim(in, rng)
			// Hosts outside the census keep the victimRef contract's
			// "Unknown" label rather than an empty org.
			return victimRef{a, cmp.Or(census.OrgOf(a), "Unknown")}, true
		})
	default:
		servers := census.ByOrg(pool.Org)
		if len(servers) == 0 {
			return nil, fmt.Errorf("no census servers for org %q", pool.Org)
		}
		out = pickDistinctVictims(servers, size, rng)
	}
	if len(out) == 0 {
		// An empty pool would silently drop the whole phase — fail as
		// loudly as an unknown org does.
		return nil, fmt.Errorf("victim pool %q resolved to zero hosts", pool.Org)
	}
	return out, nil
}

// pickDistinctVictims draws up to n distinct census servers as victim
// refs: the paper schedule's per-org pools and a phase's census pools.
func pickDistinctVictims(servers []activescan.Server, n int, rng *netmodel.RNG) []victimRef {
	return drawDistinct(min(n, len(servers)), func() (victimRef, bool) {
		s := servers[rng.Intn(len(servers))]
		return victimRef{s.Addr, s.Org}, true
	})
}

// drawDistinct fills a pool of up to n distinct victims from draw,
// skipping draws it marks !ok (e.g. census hits for the "unknown"
// pool), with a bounded try budget: an oversized pool (a huge Scale
// against a finite address space) degrades to fewer victims instead of
// spinning forever.
func drawDistinct(n int, draw func() (victimRef, bool)) []victimRef {
	out := make([]victimRef, 0, n)
	seen := make(map[netmodel.Addr]bool, n)
	for tries := 0; len(out) < n && tries < 64*n+1024; tries++ {
		v, ok := draw()
		if !ok || seen[v.addr] {
			continue
		}
		seen[v.addr] = true
		out = append(out, v)
	}
	return out
}

// randomCommonVictim draws one victim with the paper's common-flood
// mixture across all network classes — content, transit, eyeball,
// enterprise, unallocated noise: the paper schedule's independent
// common floods and a phase's "internet" pool.
func randomCommonVictim(in *netmodel.Internet, r *netmodel.RNG) netmodel.Addr {
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

// assignVictims distributes n attacks over the pool. skew <= 0
// cycles the pool for even coverage; skew > 0 reproduces the paper's
// Figure 6 split — a cold majority hit exactly once and a hot set
// absorbing the rest with Pareto(1, skew) popularity.
func assignVictims(pool []victimRef, n int, skew float64, rng *netmodel.RNG) []victimRef {
	if len(pool) == 0 || n <= 0 {
		return nil
	}
	out := make([]victimRef, 0, n)
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

// addCommonFlood schedules one TCP/ICMP attack with the paper's
// common-flood profile — the single source of truth shared by the
// hard-coded schedule's pairing and independent fills and by paired
// flood phases (a calibration change here moves every path together).
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
	spec := g.floods.next()
	*spec = floodSpec{
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

// pairCommonEvents is the shared multi-vector pairing engine (the
// paper's and a paired phase's): victims covering the QUIC-only share
// are exempted first (QUIC-only is a victim property), then each
// remaining event draws a concurrent or sequential partner (Figures
// 8/12/13). It returns the next fork index so the paper schedule can
// continue numbering its independent fills.
func (g *Generator) pairCommonEvents(rng *netmodel.RNG, events []floodEvent, cShare, sShare float64, forkPrefix, ledgerLabel string) int {
	byVictim := make(map[netmodel.Addr]int)
	for _, e := range events {
		byVictim[e.victim]++
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
		if quicOnly[e.victim] {
			g.Truth.QUICOnly++
			idx++
			continue
		}
		x := rng.Float64() * (cShare + sShare)
		if x < cShare {
			g.Truth.Concurrent++
			dur := clampF(rng.LogNormal(math.Log(1499), 1.0), e.durSec*0.3+61, 90000)
			var start float64
			if rng.Float64() < 0.78 {
				// Full containment: the common attack brackets the
				// QUIC flood (Figure 12's dominant mode).
				lead := 1 + rng.Exp(0.15*e.durSec+30)
				start = e.startSec - lead
				if dur < e.durSec+lead+60 {
					dur = e.durSec + lead + 60 + rng.Exp(120)
				}
			} else {
				// Partial overlap: start inside the QUIC attack.
				start = e.startSec + e.durSec*(0.15+0.7*rng.Float64())
			}
			if start < 0 {
				start = 0
			}
			g.addCommonFlood(rng, e.victim, start, dur, forkPrefix, idx, ledgerLabel)
		} else {
			g.Truth.Sequential++
			gap := clampF(rng.LogNormal(math.Log(9*3600), 1.9), 400, 28*86400)
			dur := clampF(rng.LogNormal(math.Log(1499), 1.2), 65, 90000)
			var start float64
			if rng.Float64() < 0.5 {
				start = e.startSec + e.durSec + gap
			} else {
				start = e.startSec - gap - dur
			}
			if start < 0 || start+dur > measurementSeconds {
				// Fold back inside the month on the other side.
				start = clampF(e.startSec+e.durSec+gap, 0, measurementSeconds-dur-1)
			}
			g.addCommonFlood(rng, e.victim, start, dur, forkPrefix, idx, ledgerLabel)
		}
		idx++
	}
	return idx
}

// ---------------------------------------------------------------------------
// Misconfiguration noise

// scheduleMisconfigSources is the single misconfig-responder
// implementation shared by the paper schedule (scheduleMisconfig, over
// the whole month) and misconfig phases (over their window): n
// low-volume responders (Appendix B) on census hosts that are not
// flood victims at scheduling time, one source per responder. The
// victim-exclusion draw is bounded so a census fully covered by
// victims degrades to victim hosts instead of spinning.
func (g *Generator) scheduleMisconfigSources(rng *netmodel.RNG, n int, visitsMean, start, dur float64, ledgerLabel string) {
	census := g.cfg.Census
	if len(census.Servers) == 0 {
		return
	}
	avail := dur - misconfigTailSec
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
		spec := g.misconfigs.next()
		*spec = misconfigSpec{
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
// coordinate system of phase windows.
func MonthSeconds() float64 { return measurementSeconds }
