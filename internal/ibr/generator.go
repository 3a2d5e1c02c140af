package ibr

import (
	_ "embed"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"quicsand/internal/activescan"
	"quicsand/internal/netmodel"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// Config parameterizes one simulated measurement month.
type Config struct {
	// Seed determines the entire run.
	Seed uint64
	// Scale multiplies event counts (bots, attacks, victims); 1.0
	// reproduces the paper's session/attack magnitudes. Per-event
	// structure is scale-invariant. Default 1.0.
	Scale float64
	// ResearchThin is the thinning weight for research-scan records:
	// one record stands for this many packets. Default 64. Only the
	// weighted Figure 2/3 counters observe research traffic, so
	// thinning is loss-free for every other analysis.
	ResearchThin uint32
	// SkipResearch drops research scanners entirely (fast tests).
	SkipResearch bool
	// Internet and Census default to freshly built instances.
	Internet *netmodel.Internet
	Census   *activescan.Census
	// Identity signs the template handshakes. Nil means the identity
	// embedded in this package (identity.pem), so the seed alone fixes
	// every payload byte of a run; a caller's own identity changes the
	// certificate and signature bytes, and nothing else.
	Identity *tlsmini.Identity
	// RecordLedger captures every scheduled event in Generator.Ledger
	// (see ledger.go) — the analytic oracle's input. Recording is pure
	// observation: it never consumes an RNG draw, so a run is
	// bit-identical with or without it.
	RecordLedger bool
}

// defaultIdentityPEM is the template identity when Config.Identity is
// nil: a self-signed ECDSA-P256 certificate for quic.example.net with
// 600 bytes of subject padding, as tlsmini.GenerateSelfSigned makes,
// fixed once so that a seed fixes a recording's bytes.
//
//go:embed identity.pem
var defaultIdentityPEM []byte

// Calibration constants: the paper-published magnitudes the generator
// targets at Scale=1. Each is an *input* intensity; the reported
// results are still measured from the packet stream.
const (
	calBots               = 9600   // distinct scanning bot addresses
	calBotVisitsMean      = 1.25   // extra visits per bot (+1)
	calBotPacketsPerVisit = 11     // mean packets per scan session
	calBotTagShare        = 0.023  // bots the GreyNoise join tags
	calQUICAttacks        = 2905   // QUIC flood events
	calQUICVictims        = 394    // distinct QUIC victims
	calCommonAttacks      = 282000 // TCP/ICMP flood events
	// calCommonVictims keeps attacks-per-victim near Jonker et al.'s
	// macroscopic view (millions of targets ⇒ ~1.4 attacks/victim);
	// small pools would merge attacks into month-long sessions.
	calCommonVictims   = 200000
	calMisconfSources  = 3400 // Appendix B low-volume responders
	calMisconfVisits   = 5.8  // extra visits per source (+1)
	calResearchScans   = 11   // full-IPv4 sweeps per month (TUM+RWTH)
	calShareConcurrent = 0.43
	calShareSequential = 0.48
)

// GroundTruth records what the generator scheduled, for validation
// and for seeding the GreyNoise store. Analyses never read it.
type GroundTruth struct {
	QUICAttacks    int
	CommonAttacks  int
	QUICVictims    map[netmodel.Addr]string // victim → org
	BotAddrs       []netmodel.Addr
	TaggedBots     map[netmodel.Addr][]string
	Concurrent     int
	Sequential     int
	QUICOnly       int
	ResearchHosts  []netmodel.Addr
	MisconfSources int
}

// Generator holds the scheduled sources for one run.
type Generator struct {
	cfg     Config
	root    *netmodel.RNG
	sources []Source
	Truth   *GroundTruth
	tpl     *Templates
	// Ledger is the schedule-time event record (nil unless
	// Config.RecordLedger).
	Ledger *Ledger

	// The planned sources themselves, which sources points into.
	scans      planSlab[researchScan]
	bots       planSlab[botSpec]
	floods     planSlab[floodSpec]
	misconfigs planSlab[misconfigSpec]
}

// planChunk is how many planned sources of one kind share an
// allocation.
const planChunk = 128

// planSlab hands out a generator's planned sources of one kind from
// chunks of planChunk, so a month's plan costs one allocation per chunk,
// not one per event. A chunk is never reused: it lives as long as the
// sources in it, which is as long as the generator and its mergers hold
// them. The ledger and Truth copy what they record, so nothing after a
// run points into a chunk.
type planSlab[T any] struct{ chunk []T }

// next returns the next zero source.
func (s *planSlab[T]) next() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, planChunk)
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// NewEmpty builds a generator with the shared substrate — simulated
// Internet, census, identity, per-version packet templates — but an
// empty schedule. The scenario compiler (internal/scenario) populates
// it phase by phase (AddPhase, plan.go); New layers the paper's
// hard-coded month on top. The root-RNG fork order (census, then
// templates, then schedule forks in call order) is the determinism
// contract: a given (seed, plan sequence) always yields the same month.
//
// The templates' RNG is forked here, but their handshakes run only when
// the first packet is generated (Templates), so a generator that only
// schedules — replay, streaming, Expect — never signs one. The identity
// is checked here all the same: an identity without a private key fails
// NewEmpty, not the first packet.
func NewEmpty(cfg Config) (*Generator, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.ResearchThin == 0 {
		cfg.ResearchThin = 64
	}
	if cfg.Internet == nil {
		cfg.Internet = netmodel.BuildInternet()
	}
	root := netmodel.NewRNG(cfg.Seed)
	// Fork unconditionally: the census stream must be consumed from
	// root whether or not a prebuilt census is supplied, or every
	// downstream fork (and with it the whole month) would shift.
	censusRNG := root.Fork("census")
	if cfg.Census == nil {
		cfg.Census = activescan.Build(cfg.Internet, censusRNG, activescan.Config{})
	}
	if cfg.Identity == nil {
		id, err := tlsmini.ParseIdentityPEM(defaultIdentityPEM)
		if err != nil {
			return nil, err
		}
		cfg.Identity = id
	}
	if cfg.Identity.Key == nil {
		return nil, errors.New("ibr: template identity has no private key")
	}
	tpl := newTemplates(root.Fork("templates"), cfg.Identity)

	g := &Generator{cfg: cfg, root: root, tpl: tpl, Truth: &GroundTruth{
		QUICVictims: make(map[netmodel.Addr]string),
		TaggedBots:  make(map[netmodel.Addr][]string),
	}}
	if cfg.RecordLedger {
		g.Ledger = &Ledger{}
	}
	return g, nil
}

// New schedules a full measurement month — the paper's April 2021
// workload. The heavy packet material is produced lazily while the
// stream runs.
func New(cfg Config) (*Generator, error) {
	g, err := NewEmpty(cfg)
	if err != nil {
		return nil, err
	}
	g.schedulePaper()
	return g, nil
}

// schedulePaper plans the paper's month onto an empty generator.
func (g *Generator) schedulePaper() {
	g.scheduleResearch(g.root.Fork("research"))
	g.scheduleBots(g.root.Fork("bots"))
	quicSpecs := g.scheduleQUICAttacks(g.root.Fork("quic-attacks"))
	g.scheduleCommonAttacks(g.root.Fork("common-attacks"), quicSpecs)
	g.scheduleMisconfig(g.root.Fork("misconfig"))
}

// Internet returns the simulated topology the generator schedules
// against.
func (g *Generator) Internet() *netmodel.Internet { return g.cfg.Internet }

// Sources exposes the scheduled sources (for custom mergers).
func (g *Generator) Sources() []Source { return g.sources }

// Feeds partitions the scheduled month into n canonically ordered
// per-shard streams keyed by source address — the sharded pipeline's
// input. Each merger materializes, merges, and streams only its own
// shard's sources, so generation itself parallelizes across the
// engine's workers; Feeds(1, recycle) yields the whole month as one
// stream.
//
// recycle enables per-shard packet-slab recycling: exhausted sources
// hand their arenas to later events of the same shard, making the
// generate path allocation-free per packet. It is only legal when
// every packet is fully consumed during the engine sink call, which the
// engine guarantees, trace tap included: the tap copies packet structs
// (DESIGN.md "Packet ownership & lifetime"). quicsand.Run always passes
// true; false is for a consumer that keeps packet pointers.
func (g *Generator) Feeds(n int, recycle bool) []*Merger {
	groups := Partition(g.sources, n)
	feeds := make([]*Merger, n)
	for i := range feeds {
		feeds[i] = NewMerger(groups[i]...)
		if recycle {
			feeds[i].EnableRecycling()
		}
	}
	return feeds
}

func (g *Generator) scaled(n float64) int {
	v := int(math.Round(n * g.cfg.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// ---------------------------------------------------------------------------

func (g *Generator) scheduleResearch(rng *netmodel.RNG) {
	if g.cfg.SkipResearch {
		return
	}
	tum := g.cfg.Internet.Registry.ByASN(netmodel.ASNTUM)
	rwth := g.cfg.Internet.Registry.ByASN(netmodel.ASNRWTH)
	tumHost := tum.Prefixes[0].Nth(77)
	rwthHost := rwth.Prefixes[0].Nth(42)
	g.Truth.ResearchHosts = []netmodel.Addr{tumHost, rwthHost}

	// TUM scans roughly every 5 days, RWTH every 6: 11 sweeps/month.
	starts := []struct {
		host netmodel.Addr
		day  float64
		dur  time.Duration
	}{
		{tumHost, 0.3, 10 * time.Hour}, {tumHost, 5.1, 10 * time.Hour},
		{tumHost, 10.2, 10 * time.Hour}, {tumHost, 15.4, 10 * time.Hour},
		{tumHost, 20.3, 10 * time.Hour}, {tumHost, 25.2, 10 * time.Hour},
		{rwthHost, 2.6, 8 * time.Hour}, {rwthHost, 8.5, 8 * time.Hour},
		{rwthHost, 14.7, 8 * time.Hour}, {rwthHost, 20.9, 8 * time.Hour},
		{rwthHost, 27.0, 8 * time.Hour},
	}
	for i, s := range starts {
		start := (s.day + rng.Float64()*0.3) * 86400
		scan := g.scans.next()
		*scan = newResearchScan(rng.Fork(fmt.Sprintf("scan/%d", i)), s.host, start, s.dur, g.cfg.ResearchThin)
		g.sources = append(g.sources, scan)
		g.recordResearch("paper/research", scan, s.dur.Seconds())
	}
}

// diurnalOffset draws a second-of-month with the request traffic's
// double peak at 06:00 and 18:00 UTC.
func diurnalOffset(rng *netmodel.RNG) float64 {
	for {
		day := float64(rng.Intn(30)) // whole days keep the hour intact
		hour := rng.Float64() * 24
		w := 1 + 2.4*math.Exp(-sq(hour-6)/4) + 2.4*math.Exp(-sq(hour-18)/4)
		if rng.Float64()*3.5 < w {
			return day*86400 + hour*3600
		}
	}
}

func sq(x float64) float64 { return x * x }

func (g *Generator) scheduleBots(rng *netmodel.RNG) {
	in := g.cfg.Internet
	// Country weights over eyeball ASes: BD 34 %, US 27 %, DZ 8 %,
	// rest spread — the §5.2 origin mix.
	type pool struct {
		asns   []uint32
		weight float64
	}
	pools := []pool{
		{[]uint32{63526, 58717, 45245}, 0.34},       // BD
		{[]uint32{7922, 20115, 7018}, 0.27},         // US
		{[]uint32{36947}, 0.08},                     // DZ
		{[]uint32{45899, 4134, 12389, 28573}, 0.21}, // VN/CN/RU/BR
		{[]uint32{9829}, 0.10},                      // IN
	}
	weights := make([]float64, len(pools))
	for i, p := range pools {
		weights[i] = p.weight
	}

	nBots := g.scaled(calBots)
	for i := 0; i < nBots; i++ {
		p := pools[rng.Pick(weights)]
		asn := p.asns[rng.Intn(len(p.asns))]
		src := in.RandomHostOf(asn, rng)
		nVisits := 1 + int(rng.Exp(calBotVisitsMean))
		if nVisits > 12 {
			nVisits = 12
		}
		visits := make([]float64, nVisits)
		for j := range visits {
			visits[j] = diurnalOffset(rng)
		}
		sort.Float64s(visits)
		bot := g.bots.next()
		*bot = botSpec{
			src:     src,
			version: botVersions[rng.Pick(botVersionWeights)],
			visits:  visits,
			pktsPer: calBotPacketsPerVisit,
			srcPort: uint16(1024 + rng.Intn(60000)),
			rng:     rng.ForkIndexed("bot", i),
			tpl:     g.tpl,
			// Carrying full payloads on every scan packet is the
			// default; it exercises the dissector's ClientHello path.
			withload: true,
		}
		g.sources = append(g.sources, bot)
		g.recordBot("paper/bots", bot)
		g.Truth.BotAddrs = append(g.Truth.BotAddrs, src)
		if rng.Float64() < calBotTagShare {
			g.Truth.TaggedBots[src] = append(g.Truth.TaggedBots[src], drawBotTag(rng))
		}
	}
}

// ---------------------------------------------------------------------------

// The paper's QUIC attacks are retained as floodEvents (plan.go) for
// multi-vector pairing.

func (g *Generator) scheduleQUICAttacks(rng *netmodel.RNG) []floodEvent {
	census := g.cfg.Census

	nVictims := g.scaled(calQUICVictims)
	google := pickDistinctVictims(census.ByOrg("Google"), maxInt(2, nVictims*43/100), rng.Fork("victims/google"))
	facebook := pickDistinctVictims(census.ByOrg("Facebook"), maxInt(2, nVictims*28/100), rng.Fork("victims/facebook"))
	var otherServers []activescan.Server
	for _, s := range census.Servers {
		if s.Org != "Google" && s.Org != "Facebook" {
			otherServers = append(otherServers, s)
		}
	}
	other := pickDistinctVictims(otherServers, maxInt(2, nVictims*25/100), rng.Fork("victims/other"))
	// Unknown victims: content-space hosts absent from the census.
	var unknown []victimRef
	for len(unknown) < maxInt(1, nVictims*4/100) {
		a := g.cfg.Internet.RandomHostOf(netmodel.ASNCloudflare, rng)
		if !census.IsKnown(a) {
			unknown = append(unknown, victimRef{addr: a})
		}
	}

	nAttacks := g.scaled(calQUICAttacks)
	plans := make([]floodEvent, 0, nAttacks)
	orgNames := []string{"Google", "Facebook", "Other", "Unknown"}
	orgShares := []float64{0.58, 0.25, 0.15, 0.02}
	orgPools := [][]victimRef{google, facebook, other, unknown}

	// Pre-assign victims per organisation with the Figure 6 skew (alpha
	// 1.15).
	type pending struct {
		orgIdx int
		victim netmodel.Addr
	}
	var queue []pending
	assigned := 0
	for oi := range orgNames {
		n := int(float64(nAttacks) * orgShares[oi])
		if oi == len(orgNames)-1 {
			n = nAttacks - assigned
		}
		assigned += n
		for _, v := range assignVictims(orgPools[oi], n, 1.15, rng.Fork("assign/"+orgNames[oi])) {
			queue = append(queue, pending{orgIdx: oi, victim: v.addr})
		}
	}
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })

	for i, pq := range queue {
		orgIdx, victim := pq.orgIdx, pq.victim
		g.Truth.QUICVictims[victim] = orgNames[orgIdx]

		// Version mix per provider (§5.2: mvfst-draft-27 95 % for
		// Facebook, draft-29 78 % for Google).
		var version wire.Version
		switch orgIdx {
		case 0:
			version = pickVersion(rng, []wire.Version{wire.VersionDraft29, wire.Version1, wire.VersionDraft27}, []float64{0.78, 0.18, 0.04})
		case 1:
			version = pickVersion(rng, []wire.Version{wire.VersionMVFST27, wire.VersionDraft29}, []float64{0.95, 0.05})
		default:
			version = pickVersion(rng, []wire.Version{wire.Version1, wire.VersionDraft29}, []float64{0.6, 0.4})
		}

		// A per-attack magnitude couples duration, rate and packet
		// budget: large attacks are large in every dimension, giving
		// the joint tail the Figure 10 weight sweep probes.
		magnitude := rng.LogNormal(0, 0.9)
		dur := clampF(rng.LogNormal(math.Log(260), 0.85)*math.Pow(magnitude, 0.5), 65, 30000)
		start := rng.Float64() * (measurementSeconds - dur)

		// Packet budget: Google floods elicit fewer packets but more
		// SCIDs (fresh context per tuple); mvfst pools contexts.
		sizeFactor, scidRatio := 1.0, 0.6
		switch orgIdx {
		case 0:
			sizeFactor, scidRatio = 0.7, 0.95
		case 1:
			sizeFactor, scidRatio = 1.4, 0.30
		}
		peak := 45 + int(rng.Pareto(7, 1.3)*magnitude*sizeFactor)
		if peak > 1150 {
			peak = 1150
		}
		baseRate := rng.Exp(0.25) * magnitude * sizeFactor
		if baseRate < 0.05 {
			// Floods sustain backscatter for their whole duration; a
			// floor keeps sessions from fragmenting at the 5-minute
			// timeout (real victims keep answering while flooded).
			baseRate = 0.05
		}
		base := int(dur * baseRate)
		if base > 6200 {
			base = 6200
		}
		nAddrs := 1 + int(rng.Pareto(1.2, 1.2))
		if nAddrs > 20 {
			nAddrs = 20
		}
		nPorts := 3 + int(rng.Pareto(15, 1.1))
		if nPorts > 200 {
			nPorts = 200
		}

		spec := g.floods.next()
		*spec = floodSpec{
			vector: 0, victim: victim, version: version,
			startSec: start, durSec: dur,
			peakPkts: peak, basePkts: base,
			nAddrs: nAddrs, nPorts: nPorts, scidRatio: scidRatio,
			rng: rng.ForkIndexed("qattack", i), tpl: g.tpl,
		}
		g.sources = append(g.sources, spec)
		g.recordFlood("paper/quic-attacks", spec, orgNames[orgIdx])
		plans = append(plans, floodEvent{victim: victim, startSec: start, durSec: dur})
	}
	g.Truth.QUICAttacks = nAttacks
	return plans
}

func pickVersion(rng *netmodel.RNG, vs []wire.Version, w []float64) wire.Version {
	return vs[rng.Pick(w)]
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------

func (g *Generator) scheduleCommonAttacks(rng *netmodel.RNG, quicEvents []floodEvent) {
	in := g.cfg.Internet

	// 1) Multi-vector pairing against the scheduled QUIC attacks
	// (shared with scenario plans — see pairCommonEvents in plan.go).
	idx := g.pairCommonEvents(rng, quicEvents, calShareConcurrent, calShareSequential, "cattack", "paper/common-paired")

	// 2) Independent common attacks filling the 282 k total.
	nTotal := g.scaled(calCommonAttacks)
	nIndependent := nTotal - g.Truth.CommonAttacks
	nVictims := g.scaled(calCommonVictims)
	commonVictims := make([]netmodel.Addr, nVictims)
	vWeights := make([]float64, nVictims)
	for i := range commonVictims {
		commonVictims[i] = randomCommonVictim(in, rng)
		vWeights[i] = rng.Pareto(1, 1.5)
	}
	// One sampler for the whole fill: rng.Pick would re-sum and scan the
	// V-entry table for each of the A draws (O(A·V), quadratic in Scale).
	popularity := netmodel.NewSampler(vWeights)
	for i := 0; i < nIndependent; i++ {
		dur := clampF(rng.LogNormal(math.Log(1499), 1.2), 65, 90000)
		start := rng.Float64() * (measurementSeconds - dur)
		g.addCommonFlood(rng, commonVictims[popularity.Pick(rng)], start, dur, "cattack", idx, "paper/common")
		idx++
	}
}

// ---------------------------------------------------------------------------

func (g *Generator) scheduleMisconfig(rng *netmodel.RNG) {
	// Content hosts that answer junk: census members not among the
	// flood victims (mostly), matching Figure 5's content-heavy
	// response population. Shared with scenario misconfig phases
	// (scheduleMisconfigSources in plan.go).
	g.scheduleMisconfigSources(rng, g.scaled(calMisconfSources), calMisconfVisits, 0, measurementSeconds, "paper/misconfig")
}
