// Package quicsand reproduces the measurement pipeline of "QUICsand:
// Quantifying QUIC Reconnaissance Scans and DoS Flooding Events"
// (Nawrocki et al., ACM IMC 2021).
//
// The package ties the substrates together into the paper's analysis:
//
//	simulated Internet (internal/netmodel)
//	    → background-radiation generators (internal/ibr)
//	    → /9 telescope capture (internal/telescope)
//	    → QUIC dissection (internal/dissect, RFC 9000/9001 via
//	      internal/wire, internal/quiccrypto, internal/tlsmini)
//	    → sessionization (internal/sessions)
//	    → DoS detection (internal/dosdetect)
//	    → multi-vector correlation (internal/correlate)
//	    → joins against PeeringDB/GreyNoise/active-scan substitutes
//
// Run executes the whole month and returns an Analysis whose Figure*
// and Headline methods regenerate every figure and table of the
// paper's evaluation (see EXPERIMENTS.md for the paper-vs-measured
// record); Replay does the same over a stored capture and ReplayAlerts
// adds the sliding-window detectors' alert stream — one batch driver
// behind all three. The workload is declarative: Config.Scenario
// selects a built-in or spec-loaded scenario (internal/scenario) in
// place of the paper's hard-coded month. The server-side DoS benchmark
// (Table 1) lives in internal/flood with real handshake machinery from
// internal/quicserver and internal/quicclient.
package quicsand

import (
	"fmt"
	"time"

	"quicsand/internal/activescan"
	"quicsand/internal/capture"
	"quicsand/internal/ckpt"
	"quicsand/internal/correlate"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/engine"
	"quicsand/internal/greynoise"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/scenario"
	"quicsand/internal/sessions"
	"quicsand/internal/stats"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// Config parameterizes a full pipeline run.
type Config struct {
	// Seed fixes all randomness; runs are bit-reproducible.
	Seed uint64
	// Scale multiplies event counts; 1.0 reproduces paper-scale
	// session and attack magnitudes (see DESIGN.md §5).
	Scale float64
	// ResearchThin is the research-scan thinning weight (default 64).
	ResearchThin uint32
	// SkipResearch omits research scanners (fast shape-only runs;
	// Figure 2 then lacks its dominant series).
	SkipResearch bool
	// Trace, when set, receives every captured packet (checkpointing)
	// in canonical global time order regardless of Workers. A packet
	// passed to Capture is valid only during the call: Run and Replay
	// pass the engine tap's copy, a Streamer the packet its caller
	// offered.
	Trace telescope.Sink
	// Identity signs the generator's template handshakes. Nil uses
	// the generator's embedded identity, so a seed alone fixes a
	// trace's bytes; another identity changes only the certificate and
	// signature bytes of the payloads.
	Identity *tlsmini.Identity
	// Workers selects the pipeline shard count: 0 uses every CPU
	// (GOMAXPROCS), N fans the month out over N analysis shards keyed
	// by source address — 1 is one shard on the same worker loop, which
	// sees the whole stream in canonical order. Analysis results are
	// bit-identical for every value (DESIGN.md §8).
	Workers int
	// Scenario selects the workload: nil (or the paper-2021 built-in)
	// runs the paper's hard-coded month, anything else compiles the
	// declarative phases onto the same engine (internal/scenario,
	// DESIGN.md §11). Replay must pass the recorded run's scenario for
	// the ground-truth joins to line up, exactly like Seed and Scale.
	Scenario *scenario.Scenario
	// Salvage selects Replay's reaction to damaged or failing capture
	// input (DESIGN.md §14). The zero policy is fail-fast: the first
	// corrupt record or exhausted read aborts the replay, the historical
	// behavior. SkipCorrupt resyncs past damaged spans and accounts them
	// in Telemetry.Ingest; MaxRetries adds bounded exponential-backoff
	// retries for transient (Temporary()) read errors — spent in the
	// source's byte window and nowhere else, so the budget is the same
	// for Replay, ReplayAlerts and capture.Copy. Ignored by live runs —
	// generators do not fail.
	Salvage capture.SalvagePolicy
	// FlightRecorder, when non-nil, records the run's stage/shard
	// timeline (DESIGN.md §15): per-slice spans for every pipeline stage
	// plus queue-depth/rate samples, merged into Analysis.Flight after
	// the run. A recorder records exactly one run — build a fresh
	// telemetry.NewRecorder per Run/Replay call. nil (the default) keeps
	// every instrumented site a single nil check; analysis results are
	// identical either way.
	FlightRecorder *telemetry.Recorder
	// Live, when non-nil, receives per-shard atomic progress counters
	// while the pipeline runs, for concurrent heartbeat/endpoint
	// sampling (`quicsand replay -heartbeat`, mirroring telescoped).
	// Must be sized for the resolved worker count. nil — the default —
	// keeps the hot path free of atomics.
	Live *telemetry.Live
}

// generatorConfig is the ibr.Config that cfg's seed-path fields fix —
// the one copy Run, Replay, Expect and ExpectAlerts share, so a new
// generator knob reaches all of them. Substrate (Internet, census) is
// the caller's to add.
func (cfg *Config) generatorConfig() ibr.Config {
	return ibr.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch,
		Identity:     cfg.Identity,
	}
}

// Analysis is the result of one pipeline run: every figure's data,
// recomputed from the packet stream.
type Analysis struct {
	Config   Config
	Internet *netmodel.Internet
	Truth    *ibr.GroundTruth

	// census holds the active-scan census membership and operator of
	// every response-session source that is a census server — the only
	// addresses the figures ask about (attack victims and the Figure 10
	// sweep), resolved in reduce so a held Analysis keeps this map and
	// not the whole census. See OrgOf and KnownShare.
	census map[netmodel.Addr]string

	// Telescope overview (§5.1).
	Telescope *telescope.Telescope
	// HourlySource bins all QUIC packets by source family
	// ("TUM-Scans", "RWTH-Scans", "Other") — Figure 2.
	HourlySource *telescope.HourlyCounter
	// HourlyType bins sanitized QUIC packets ("Requests",
	// "Responses") — Figure 3.
	HourlyType *telescope.HourlyCounter

	// Sanitized QUIC sessions (requests and responses).
	QUICSessions     []*sessions.Session
	RequestSessions  []*sessions.Session
	ResponseSessions []*sessions.Session
	Sweep            *sessions.TimeoutSweep

	// Detection results.
	QUICDetector   *dosdetect.Detector
	CommonDetector *dosdetect.Detector
	Correlation    *correlate.Summary

	// Joins.
	GreyNoise   *greynoise.Store
	ScanSources *greynoise.SourceStats

	// NonQUIC counts UDP/443 packets rejected by deep dissection
	// (the false-positive filter ablation): the shards' dissector
	// ParseFailures, summed.
	NonQUIC uint64

	// Pipeline reports per-stage throughput (packets/s, stage
	// latency) for the run. Together with the runtime parts of
	// Telemetry it is all that varies between runs of the same seed.
	Pipeline *engine.Stats

	// Telemetry is the merged per-layer counter snapshot. Its Stream
	// projection is bit-identical across worker counts and live/replay;
	// the rest (cache, recycling, balance) describes this execution.
	Telemetry *telemetry.Snapshot

	// Flight is the merged flight-recorder timeline, set only when
	// Config.FlightRecorder was non-nil. Span structure (per-stage event
	// counts at a fixed worker count) is deterministic; timestamps and
	// durations describe this execution (DESIGN.md §15).
	Flight *telemetry.Timeline
}

// sourceClassifier builds the Figure 2 labeller ("TUM-Scans",
// "RWTH-Scans", "Other") over the research prefixes.
func sourceClassifier(tum, rwth netmodel.Prefix) func(p *telescope.Packet) string {
	return func(p *telescope.Packet) string {
		if !p.IsQUICCandidate() {
			return ""
		}
		switch {
		case tum.Contains(p.Src):
			return "TUM-Scans"
		case rwth.Contains(p.Src):
			return "RWTH-Scans"
		default:
			return "Other"
		}
	}
}

// typeClassifier labels sanitized QUIC packets for Figure 3.
func typeClassifier(p *telescope.Packet) string {
	if p.IsRequest() {
		return "Requests"
	}
	if p.IsResponse() {
		return "Responses"
	}
	return ""
}

// pipelineShard is one worker's private slice of the analysis state:
// telescope counters, hourly histograms, sessionizers, sweep and the
// common-vector detector. All packets of one source address land on
// one shard, so per-source session state never crosses goroutines and
// the hot path takes no locks. After the stream drains, shards reduce
// into the Analysis by commutative merges plus a canonical sort.
type pipelineShard struct {
	internet     *netmodel.Internet
	tel          *telescope.Telescope
	hourlySource *telescope.HourlyCounter
	hourlyType   *telescope.HourlyCounter
	sweep        *sessions.TimeoutSweep
	quicSz       *sessions.Sessionizer
	commonSz     *sessions.Sessionizer
	commonDet    *dosdetect.Detector
	dis          *dissect.Dissector
	sessions     []sessions.Session

	// det is the shard's sliding-window detector bank, attached by a
	// StreamConfig.Detect (a Streamer, ReplayAlerts); nil otherwise,
	// which keeps the plain batch hot path unchanged.
	det *detect.Shard

	// Flight-recorder state (DESIGN.md §15): the shard's ring plus the
	// open slice's dissect/sessions sub-stage accumulators. nil ring —
	// the default — reduces every instrumented site to one branch.
	ring *telemetry.Ring
	fl   shardFlight
	// live is the shard's atomic progress bank (Config.Live), nil when
	// no concurrent observer is attached.
	live *telemetry.LiveShard

	// sessLog and atkLog are the append-only QCKP encodings of every
	// session the shard has emitted and every TCP/ICMP attack it has
	// found (streaming shards only, DESIGN.md §17): the QUIC sessionizer
	// and the TCP/ICMP detector append each as it finishes, and the
	// shard keeps neither as an object. stateLen is the length of the
	// previous tick's encoded state, which sizes the next tick's buffer.
	// Batch runs leave all three zero, sessions holds every emitted
	// session for reduce and the detector its attacks; they sit last so
	// the fields the batch hot path reads keep their offsets (inserted
	// mid-struct, they cost a replay that runs none of them 1–11 %:
	// EXPERIMENTS.md).
	sessLog  ckpt.Writer
	atkLog   ckpt.Writer
	stateLen int
}

// shardFlight accumulates one recorder slice's sub-stage shares: how
// much of the shard's analyze time the dissector and the sessionizers
// consumed, aggregated per slice (per-packet spans would overflow any
// ring on month-scale runs).
type shardFlight struct {
	slice  uint64
	start  int64
	items  uint64
	total  uint64 // cumulative packets, across slices
	disNS  int64
	disN   uint64
	sessNS int64
	sessN  uint64
}

// flightSlice closes the open slice: one aggregated dissect span, one
// aggregated sessions span (anchored at the slice start), and one
// cumulative packet-count sample — the counter track whose slope is
// the shard's per-interval packet rate in Perfetto.
func (sh *pipelineShard) flightSlice(now int64) {
	f := &sh.fl
	sh.ring.Span(telemetry.StageDissect, f.start, f.disNS, f.disN)
	sh.ring.Span(telemetry.StageSessions, f.start, f.sessNS, f.sessN)
	f.total += f.items
	sh.ring.Sample(telemetry.CounterRecords, now, f.total)
	*f = shardFlight{slice: f.slice, start: now, total: f.total}
}

// flightClose flushes a partial final slice after the stream drains:
// on the reducing goroutine once the worker join ordered the ring
// writes, or on a Streamer shard's own feed at Close's checkpoint.
func (sh *pipelineShard) flightClose() {
	if sh.ring != nil && sh.fl.items > 0 {
		sh.flightSlice(sh.ring.Now())
	}
}

// dissectPkt dissects p in its port direction (server replies are
// never trial-opened), metered when the recorder is on.
func (sh *pipelineShard) dissectPkt(p *telescope.Packet) (*dissect.Result, error) {
	if sh.ring == nil {
		return sh.dis.DissectPacket(p)
	}
	t0 := sh.ring.Now()
	r, err := sh.dis.DissectPacket(p)
	sh.fl.disNS += sh.ring.Now() - t0
	sh.fl.disN++
	return r, err
}

// observe meters one sessionizer offer when the recorder is on.
func (sh *pipelineShard) observe(sz *sessions.Sessionizer, p *telescope.Packet, res *dissect.Result) {
	if sh.ring == nil {
		sz.Observe(p, res)
		return
	}
	t0 := sh.ring.Now()
	sz.Observe(p, res)
	sh.fl.sessNS += sh.ring.Now() - t0
	sh.fl.sessN++
}

// newPipelineShard builds one shard's empty analysis state, unwired.
func newPipelineShard() *pipelineShard {
	sh := &pipelineShard{
		tel:          telescope.New(),
		hourlySource: telescope.NewHourlyCounter(nil),
		hourlyType:   telescope.NewHourlyCounter(nil),
		sweep:        sessions.NewTimeoutSweep(),
		quicSz:       sessions.NewSessionizer(nil),
		commonSz:     sessions.NewSessionizer(nil),
		commonDet:    newCommonDetector(),
		dis:          dissect.NewDissector(),
	}
	sh.chain()
	return sh
}

// newCommonDetector builds a TCP/ICMP detector: the paper's thresholds,
// and no excluded sessions kept, for the stream's high volume.
func newCommonDetector() *dosdetect.Detector {
	d := dosdetect.NewDetector(dosdetect.VectorCommon)
	d.DropExcluded = true
	return d
}

// chain connects the shard's parts to each other: the QUIC sessionizer
// copies what it emits into the session list and reports the gaps inside
// its sessions to the sweep, the common sessionizer feeds the
// common-vector detector, which keeps no session it is lent. A fresh
// shard and one decoded from a checkpoint image are chained here alike,
// so a reduction flushes either the same way.
func (sh *pipelineShard) chain() {
	sh.quicSz.Emit = func(s *sessions.Session) { sh.sessions = append(sh.sessions, *s) }
	sh.quicSz.GapRecorder = sh.sweep.RecordGap
	sh.commonSz.Emit = sh.commonDet.Offer
}

// wire connects shard i's state, fresh or decoded from a checkpoint, to
// a run: its substrate and the run's attachments — classifiers, recorder
// ring and live bank, plus a streaming config's detector bank and source
// budget. Nothing else sets any of these.
func (sh *pipelineShard) wire(i int, c *pipelinePlan) {
	sh.internet = c.proto.Internet
	sh.hourlySource.Classify = sourceClassifier(c.tum, c.rwth)
	sh.hourlyType.Classify = typeClassifier

	rec := c.cfg.FlightRecorder
	sh.ring = rec.ShardRing(i)
	sh.fl.slice = uint64(rec.SliceItems())
	sh.fl.start = sh.ring.Now()
	if c.cfg.Live != nil {
		sh.live = c.cfg.Live.Shard(i)
	}
	if c.cfg.Detect != nil {
		sh.det = detect.NewShard(*c.cfg.Detect)
		sh.det.MaxSources = c.cfg.MaxActiveSessions
	}
	if c.cfg.MaxActiveSessions > 0 {
		sh.quicSz.MaxActive = c.cfg.MaxActiveSessions
		sh.commonSz.MaxActive = c.cfg.MaxActiveSessions
	}
}

// process runs one packet through the shard's analysis chain and
// reports whether the telescope captured it (the trace-tap predicate).
func (sh *pipelineShard) process(p *telescope.Packet) bool {
	if sh.ring != nil {
		// Slice boundaries derive from the shard's packet count, so the
		// per-stage span structure is deterministic (DESIGN.md §15).
		if sh.fl.items++; sh.fl.items >= sh.fl.slice {
			sh.flightSlice(sh.ring.Now())
		}
	}
	if sh.live != nil {
		sh.live.Packets.Add(1)
		sh.live.Bytes.Add(uint64(p.Size))
	}
	if !sh.tel.Offer(p) {
		return false
	}
	sh.hourlySource.Capture(p)

	// §5.1 sanitization: drop research scanners before analysis.
	if sh.internet.IsResearchSource(p.Src) {
		return true
	}
	switch p.Proto {
	case telescope.ProtoTCP, telescope.ProtoICMP:
		sh.observe(sh.commonSz, p, nil)
	case telescope.ProtoUDP:
		if !p.IsQUICCandidate() {
			return true
		}
		var res *dissect.Result
		if p.Payload != nil {
			r, err := sh.dissectPkt(p)
			if err != nil {
				if sh.live != nil {
					sh.live.NonQUIC.Add(1)
				}
				return true
			}
			res = r
		}
		sh.hourlyType.Capture(p)
		sh.observe(sh.quicSz, p, res)
		if sh.det != nil {
			sh.det.Observe(p, res)
			if sh.live != nil {
				sh.live.Alerts.Store(sh.det.Metrics.AlertsOpened)
			}
		}
	}
	return true
}

func (sh *pipelineShard) flush() {
	sh.quicSz.Flush()
	sh.commonSz.Flush()
}

// drain reads the shard's detector bank, if any: its counters and the
// alerts closed since the previous drain. final closes every open
// episode first — the end of the stream.
func (sh *pipelineShard) drain(final bool) (telemetry.Detect, []detect.Alert) {
	if sh.det == nil {
		return telemetry.Detect{}, nil
	}
	if final {
		sh.det.Flush()
	}
	return sh.det.Metrics, sh.det.Drain()
}

// pipelinePlan is what planning fixes for a run: substrate, worker count,
// schedule timing. A batch run reduces with it; a Streamer keeps its
// config, worker count and timing but not its substrate, and a
// checkpoint's Analysis prepares a plan afresh.
type pipelinePlan struct {
	cfg       StreamConfig
	workers   int
	proto     *Analysis // substrate holder: Config/Internet/Truth
	census    *activescan.Census
	tum, rwth netmodel.Prefix
	start     time.Time    // planning began: the origin of Pipeline.Wall
	sched     engine.Stage // the "schedule" stage
}

// prepare builds the seed-determined substrate every run shares: the
// simulated Internet, the active-scan census, and the scheduled
// generator. Scheduling alone fixes the ground truth (victim → org,
// bot tags) — packets need not be generated for it, which is what
// lets Replay rebuild the joins for a stored month.
func (c *pipelinePlan) prepare() (gen *ibr.Generator, err error) {
	cfg, a := c.cfg.Config, c.proto
	a.Internet = netmodel.BuildInternet()
	// Census shared with the generator (same seed path).
	c.census = activescan.Build(a.Internet, netmodel.NewRNG(cfg.Seed).Fork("census"), activescan.Config{})
	icfg := cfg.generatorConfig()
	icfg.Internet, icfg.Census = a.Internet, c.census
	gen, err = scenario.Compile(cfg.Scenario, icfg)
	if err != nil {
		return nil, fmt.Errorf("quicsand: generator: %w", err)
	}
	a.Truth = gen.Truth
	c.tum = a.Internet.Registry.ByASN(netmodel.ASNTUM).Prefixes[0]
	c.rwth = a.Internet.Registry.ByASN(netmodel.ASNRWTH).Prefixes[0]
	return gen, nil
}

// planPipeline plans the month and wires one analysis shard per worker
// — Run, Replay, NewStreamer and ResumeStreamer all start here. shards
// is nil, or the unwired state ResumeStreamer decoded from a checkpoint.
func planPipeline(cfg StreamConfig, shards []*pipelineShard) (*pipelinePlan, *ibr.Generator, []*pipelineShard, error) {
	if cfg.Detect != nil {
		if err := cfg.Detect.Validate(); err != nil {
			return nil, nil, nil, err
		}
	}
	c := &pipelinePlan{
		cfg:     cfg,
		workers: engine.Config{Workers: cfg.Workers}.ResolveWorkers(),
		proto:   &Analysis{Config: cfg.Config},
		start:   time.Now(),
	}
	cfg.FlightRecorder.Prepare(c.workers)
	drv := cfg.FlightRecorder.DriverRing()
	plan0 := drv.Now()
	gen, err := c.prepare()
	if err != nil {
		return nil, nil, nil, err
	}
	planned := uint64(len(gen.Sources()))
	drv.Span(telemetry.StagePlan, plan0, drv.Now()-plan0, planned)
	c.sched = engine.Stage{Name: "schedule", Items: planned, Wall: time.Since(c.start)}

	for len(shards) < c.workers { // none when resuming: one was decoded per worker
		shards = append(shards, newPipelineShard())
	}
	for i, sh := range shards {
		sh.wire(i, c)
	}
	return c, gen, shards, nil
}

// analysis reduces shards into an Analysis; detMet is what their drains
// read off their detector banks. pstats arrives with the engine's part
// and, as Wall, the time since c.start, and leaves with the schedule and
// reduce stages; a non-nil rec's timeline ends here.
func (c *pipelinePlan) analysis(shards []*pipelineShard, detMet []telemetry.Detect, pstats *engine.Stats, rec *telemetry.Recorder) *Analysis {
	reduceStart := time.Now()
	drv := rec.DriverRing()
	red0 := drv.Now()
	a := *c.proto // the substrate; every result field is still zero
	a.reduce(shards, c.census, c.tum, c.rwth)
	a.Telemetry = collectTelemetry(c.cfg.Config, shards, pstats)
	for i := range detMet {
		a.Telemetry.Detect.Merge(&detMet[i])
	}
	reduced := uint64(len(a.QUICSessions))
	drv.Span(telemetry.StageReduce, red0, drv.Now()-red0, reduced)

	// Built afresh: every Analysis() of a final checkpoint gets one Stages.
	reduceWall := time.Since(reduceStart)
	pstats.Stages = append(append([]engine.Stage{c.sched}, pstats.Stages...),
		engine.Stage{Name: "reduce", Items: reduced, Wall: reduceWall})
	pstats.Wall += reduceWall
	a.Pipeline = pstats
	a.Flight = rec.Timeline(pstats.Wall)
	return &a
}

// traceTap builds the checkpoint tap when a trace sink is configured.
func traceTap(cfg Config) *engine.Tap {
	if cfg.Trace == nil {
		return nil
	}
	return &engine.Tap{Sink: cfg.Trace.Capture}
}

// reduce folds the drained shards into the Analysis: commutative
// counter merges plus one canonical sort make the result independent
// of shard count and interleaving — and of whether the packets came
// from the generator or a stored trace.
func (a *Analysis) reduce(shards []*pipelineShard, census *activescan.Census, tum, rwth netmodel.Prefix) {
	a.Telescope = telescope.New()
	a.HourlySource = telescope.NewHourlyCounter(sourceClassifier(tum, rwth))
	a.HourlyType = telescope.NewHourlyCounter(typeClassifier)
	a.Sweep = sessions.NewTimeoutSweep()
	a.QUICDetector = dosdetect.NewDetector(dosdetect.VectorQUIC)
	a.CommonDetector = newCommonDetector()
	commonDets := make([]*dosdetect.Detector, len(shards))
	n := 0
	for i, sh := range shards {
		sh.flush()
		sh.flightClose()
		a.Telescope.Merge(sh.tel)
		a.HourlySource.Merge(sh.hourlySource)
		a.HourlyType.Merge(sh.hourlyType)
		a.Sweep.Merge(sh.sweep)
		commonDets[i] = sh.commonDet
		n += len(sh.sessions)
		a.NonQUIC += sh.dis.Metrics.ParseFailures
	}
	a.CommonDetector.Merge(commonDets...)
	// The shards' sessions, gathered into one exact-size array: a held
	// Analysis keeps it and the pointers into it, not the shards' lists.
	held := make([]sessions.Session, 0, n)
	for _, sh := range shards {
		held = append(held, sh.sessions...)
	}
	a.QUICSessions = make([]*sessions.Session, n)
	for i := range held {
		a.QUICSessions[i] = &held[i]
	}
	sessions.SortCanonical(a.QUICSessions)
	a.Sweep.RecordSessions(a.QUICSessions)

	for _, s := range a.QUICSessions {
		switch s.Kind() {
		case sessions.KindRequestOnly:
			a.RequestSessions = append(a.RequestSessions, s)
		case sessions.KindResponseOnly:
			a.ResponseSessions = append(a.ResponseSessions, s)
			a.QUICDetector.Offer(s)
		default:
			// Mixed sessions would contradict the paper's disjointness
			// observation; surface them loudly in results.
			a.RequestSessions = append(a.RequestSessions, s)
		}
	}

	a.census = map[netmodel.Addr]string{}
	for _, s := range a.ResponseSessions {
		if srv := census.Lookup(s.Src); srv != nil {
			a.census[s.Src] = srv.Org
		}
	}

	a.Correlation = correlate.Correlate(a.QUICDetector.Sorted(), a.CommonDetector.Sorted())

	// GreyNoise join over request-session sources.
	a.GreyNoise = greynoise.NewStore(a.Internet.Registry)
	for addr, tags := range a.Truth.TaggedBots {
		a.GreyNoise.Tag(addr, tags...)
	}
	var srcs []netmodel.Addr
	seen := map[netmodel.Addr]bool{}
	for _, s := range a.RequestSessions {
		if !seen[s.Src] {
			seen[s.Src] = true
			srcs = append(srcs, s.Src)
		}
	}
	a.ScanSources = a.GreyNoise.Summarize(srcs)
}

// collectTelemetry folds the shards' per-layer counters plus the
// engine's own bank into one Snapshot. Counter merges commute, so the
// result is independent of shard order.
func collectTelemetry(cfg Config, shards []*pipelineShard, pstats *engine.Stats) *telemetry.Snapshot {
	snap := &telemetry.Snapshot{Workers: pstats.Workers}
	for _, sh := range shards {
		snap.Dissect.Merge(&sh.dis.Metrics)
		snap.Sessions.Merge(&sh.quicSz.Metrics)
		snap.Sessions.Merge(&sh.commonSz.Metrics)
	}
	snap.ShardPackets = append([]uint64(nil), pstats.ShardItems...)
	snap.Engine = pstats.Engine
	if c, ok := cfg.Trace.(interface {
		Count() uint64
		Dropped() uint64
	}); ok {
		snap.Trace.Written = c.Count()
		snap.Trace.Dropped = c.Dropped()
	}
	return snap
}

// pipelineFeed is what distinguishes the batch entry points: where the
// packets come from. Everything else — planning, shard wiring, the
// engine run, reduction, telemetry, stage stitching — is runPipeline.
type pipelineFeed struct {
	// stage labels the feed goroutines' flight-recorder spans.
	stage telemetry.Stage
	feeds []engine.Feed
	// err reports the feed side's first failure once the engine has
	// drained; nil when the feed cannot fail.
	err func() error
	// report folds the feed side's counters into the run's telemetry.
	report func(*telemetry.Snapshot)
}

// runPipeline is the batch driver behind Run and Replay: plan and wire
// the pipeline, run the engine over the feeds wire builds for the
// resolved worker count, drain the detector banks (if cfg attached any)
// and reduce.
func runPipeline(cfg StreamConfig, wire func(gen *ibr.Generator, workers int, rec *telemetry.Recorder) pipelineFeed) (*Analysis, []detect.Alert, error) {
	plan, gen, shards, err := planPipeline(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := cfg.FlightRecorder
	feed := wire(gen, plan.workers, rec)

	pstats := engine.Run(
		engine.Config{Workers: cfg.Workers, Recorder: rec, FeedStage: feed.stage},
		feed.feeds,
		func(i int, p *telescope.Packet) bool { return shards[i].process(p) }, traceTap(cfg.Config))
	if feed.err != nil {
		if err := feed.err(); err != nil {
			return nil, nil, err
		}
	}
	pstats.Wall = time.Since(plan.start)
	detMet := make([]telemetry.Detect, len(shards))
	lists := make([][]detect.Alert, len(shards))
	for i, sh := range shards {
		detMet[i], lists[i] = sh.drain(true)
	}
	a := plan.analysis(shards, detMet, pstats, rec)
	feed.report(a.Telemetry)
	return a, detect.MergeAlerts(lists...), nil
}

// Run generates the month and performs every analysis stage in one
// sharded streaming pass (see Config.Workers).
func Run(cfg Config) (*Analysis, error) {
	a, _, err := runPipeline(StreamConfig{Config: cfg}, func(gen *ibr.Generator, workers int, _ *telemetry.Recorder) pipelineFeed {
		// The generator always recycles its packet slabs: nothing retains
		// a packet pointer past the sink call, because the trace tap copies
		// each packet's struct, and generated payloads are shared templates
		// or GC-owned (DESIGN.md §9).
		mergers := gen.Feeds(workers, true)
		feeds := make([]engine.Feed, workers)
		for i, m := range mergers {
			feeds[i] = m.Run
		}
		return pipelineFeed{
			stage: telemetry.StageGenerate,
			feeds: feeds,
			report: func(snap *telemetry.Snapshot) {
				for _, m := range mergers {
					g := m.Telemetry()
					snap.Generate.Merge(&g)
				}
			},
		}
	})
	return a, err
}

// Replay performs the full analysis over a stored packet stream — a
// QSND checkpoint or a pcap — instead of generating one (see
// internal/capture). Records scatter to the sharded engine by source
// address as framed spans and each shard decodes its own, so `Run →
// trace to disk → Replay` produces an Analysis bit-identical to the
// direct run for any worker count, on either side (DESIGN.md §10).
//
// cfg must carry the recorded run's seed/scale/thinning parameters:
// the schedule-derived ground truth (victim organizations, bot tags
// for the GreyNoise join) is rebuilt by re-scheduling, never stored in
// the trace. Workers and Trace are free — replaying with a trace sink
// re-checkpoints the stream (the convert path with analysis). For
// foreign captures the ground truth is simply empty simulation state;
// every packet-derived figure still computes.
//
// src must frame spans (capture.SpanSource), as everything
// capture.OpenFile and NewSource return does, at every worker count: a
// Next-only source is refused, so copy it into a capture first
// (capture.Copy).
func Replay(cfg Config, src capture.Source) (*Analysis, error) {
	a, _, err := ReplayAlerts(StreamConfig{Config: cfg}, src)
	return a, err
}

// ReplayAlerts is Replay with the streaming attachments: cfg.Detect puts
// one sliding-window detector bank on every shard and the replay also
// returns the complete alert stream (every episode, the ones still open
// at end of stream closed there; canonical order, identical for every
// worker count), cfg.MaxActiveSessions bounds the sessionizers and the
// detector banks. The Analysis is Replay's plus Telemetry.Detect — the
// engine of `quicsand replay -alerts`.
func ReplayAlerts(cfg StreamConfig, src capture.Source) (*Analysis, []detect.Alert, error) {
	return runPipeline(cfg, func(_ *ibr.Generator, workers int, rec *telemetry.Recorder) pipelineFeed {
		// The tap copies packet structs, not payload bytes. A mapped
		// source's payloads alias the mapping and outlive recycling; a
		// streamed source's live in the scatter's recycled arenas, so only
		// those turn recycling off under a trace tap (DESIGN.md §9).
		ss, ok := src.(capture.SpanSource)
		sc := capture.NewScatter(src, workers, cfg.Trace == nil || ok && ss.SpanStable())
		if cfg.Trace != nil {
			sc.Pace()
		}
		sc.SetRecorder(rec)
		if cfg.Salvage.Enabled() {
			// Resync and transient retry both live in the source's window.
			capture.SetSalvage(src, cfg.Salvage)
		}
		return pipelineFeed{
			stage: telemetry.StageScatter,
			feeds: sc.Feeds(),
			err: func() error {
				if err := sc.Err(); err != nil {
					return fmt.Errorf("quicsand: replay: %w", err)
				}
				return nil
			},
			report: func(snap *telemetry.Snapshot) { snap.Ingest = ingestLedger(sc.Telemetry(), src) },
		}
	})
}

// ingestLedger completes a replay's ingest counters with what only the
// source knows: the container format, the reader-side decode skips and
// the salvage ledger. Replay and ReplayAlerts report through it.
func ingestLedger(in telemetry.Ingest, src capture.Source) telemetry.Ingest {
	in.Format = capture.SourceFormat(src).String()
	// Reader-side skips complete the shards' decode drops to a
	// worker-invariant total.
	in.DecodeDrops += capture.SourceSkipped(src)
	// The source's window keeps the one salvage ledger, retries included.
	sv := capture.SourceSalvage(src)
	in.CorruptRecords = sv.CorruptRecords
	in.ResyncScans = sv.ResyncScans
	in.SalvagedBytes = sv.SalvagedBytes
	in.SalvageMaxLost = sv.MaxLostRecords
	in.TransientRetries = sv.TransientRetries
	return in
}

// Expect computes the analytic oracle's prediction for cfg without
// generating a single packet: the scenario compiles onto a
// ledger-recording generator (scheduling only, the same cheap pass
// Replay uses to rebuild ground truth) and internal/oracle derives the
// exact-or-bounded expected analysis outputs. The result is
// independent of cfg.Workers and of live-vs-replay execution, so one
// Expectation validates every run of the (seed, scale, scenario)
// triple (DESIGN.md §12).
func Expect(cfg Config) (*oracle.Expectation, error) {
	return oracle.Expect(cfg.Scenario, cfg.generatorConfig())
}

// OracleObserved projects the Analysis onto the oracle's observation
// schema — the measured side of oracle.Evaluate.
func (a *Analysis) OracleObserved() *oracle.Observed {
	obs := &oracle.Observed{
		TelescopeTotal:      a.Telescope.Total,
		UDP443:              a.Telescope.UDP443,
		TCPICMP:             a.Telescope.TCPICMP,
		ResearchPackets:     a.HourlySource.TotalOf("TUM-Scans") + a.HourlySource.TotalOf("RWTH-Scans"),
		NonQUIC:             a.NonQUIC,
		DistinctQUICSources: int(a.Sweep.LowerBound()),
		RequestSessions:     len(a.RequestSessions),
		ResponseSessions:    len(a.ResponseSessions),
		RequestSources:      make(map[netmodel.Addr]uint64),
		Responders:          make(map[netmodel.Addr]*oracle.ResponderObs),
		CommonAttacks:       len(a.CommonDetector.Attacks),
		CommonInspected:     a.CommonDetector.Inspected,
		// LostRecords is the salvage ledger's worst-case loss: the
		// degraded-run error budget oracle.Evaluate relaxes exact
		// counters by. Zero on clean runs — exact validation applies.
		LostRecords: a.Telemetry.Ingest.SalvageMaxLost,
	}
	for _, s := range a.RequestSessions {
		if s.Kind() == sessions.KindMixed {
			obs.MixedSessions++
		}
		obs.RequestPackets += uint64(s.Packets)
		obs.RequestSources[s.Src] += uint64(s.Packets)
	}
	for _, s := range a.ResponseSessions {
		obs.ResponsePackets += uint64(s.Packets)
		r := obs.Responders[s.Src]
		if r == nil {
			r = &oracle.ResponderObs{
				Start: s.Start, End: s.End,
				Versions: make(map[wire.Version]bool),
			}
			obs.Responders[s.Src] = r
		}
		r.Sessions++
		r.Packets += uint64(s.Packets)
		r.RetryPackets += uint64(s.TypeCounts[wire.PacketTypeRetry])
		if s.Start < r.Start {
			r.Start = s.Start
		}
		if s.End > r.End {
			r.End = s.End
		}
		for _, v := range s.Versions() {
			r.Versions[v] = true
		}
	}
	for _, atk := range a.QUICDetector.Attacks {
		obs.QUICAttacks = append(obs.QUICAttacks, oracle.AttackObs{
			Victim:         atk.Victim,
			Packets:        atk.Packets,
			DurationSec:    atk.Duration(),
			MaxPPS:         atk.MaxPPS,
			SpoofedClients: atk.SpoofedClients,
			ClientPorts:    atk.ClientPorts,
			UniqueSCIDs:    atk.UniqueSCIDs,
			Version:        atk.Version,
		})
	}
	return obs
}

// Victims returns the unique QUIC flood victims.
func (a *Analysis) Victims() []netmodel.Addr {
	counts := dosdetect.VictimCounts(a.QUICDetector.Attacks)
	out := make([]netmodel.Addr, 0, len(counts))
	for v := range counts {
		out = append(out, v)
	}
	return out
}

// OrgOf returns the census operator of a response-session source, ""
// when it is not in the active-scan census. Every attack victim is such
// a source; other addresses read "".
func (a *Analysis) OrgOf(v netmodel.Addr) string { return a.census[v] }

// KnownShare returns the percentage of the given victims (response-
// session sources) present in the census — the §5.2 "98 % of attacks
// target well-known QUIC servers" figure.
func (a *Analysis) KnownShare(victims []netmodel.Addr) float64 {
	if len(victims) == 0 {
		return 0
	}
	known := 0
	for _, v := range victims {
		if _, ok := a.census[v]; ok {
			known++
		}
	}
	return float64(known) / float64(len(victims)) * 100
}

// OrgShare returns the percentage of QUIC attacks whose victim belongs
// to the named census operator.
func (a *Analysis) OrgShare(org string) float64 {
	if len(a.QUICDetector.Attacks) == 0 {
		return 0
	}
	n := 0
	for _, atk := range a.QUICDetector.Attacks {
		if a.OrgOf(atk.Victim) == org {
			n++
		}
	}
	return float64(n) / float64(len(a.QUICDetector.Attacks)) * 100
}

// AttackDurations returns the duration samples for the given vector.
func (a *Analysis) AttackDurations(vec dosdetect.Vector) []float64 {
	det := a.QUICDetector
	if vec == dosdetect.VectorCommon {
		det = a.CommonDetector
	}
	out := make([]float64, 0, len(det.Attacks))
	for _, atk := range det.Attacks {
		out = append(out, atk.Duration())
	}
	return out
}

// AttackIntensities returns max-pps samples for the given vector.
func (a *Analysis) AttackIntensities(vec dosdetect.Vector) []float64 {
	det := a.QUICDetector
	if vec == dosdetect.VectorCommon {
		det = a.CommonDetector
	}
	out := make([]float64, 0, len(det.Attacks))
	for _, atk := range det.Attacks {
		out = append(out, atk.MaxPPS)
	}
	return out
}

// MessageMix aggregates the §6 packet-type mix over attack
// backscatter: Initial share, Handshake share, other.
func (a *Analysis) MessageMix() (initial, handshake, other float64) {
	n := 0
	for _, atk := range a.QUICDetector.Attacks {
		initial += atk.InitialShare
		handshake += atk.HandshakeShare
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	initial /= float64(n)
	handshake /= float64(n)
	return initial * 100, handshake * 100, 100 - (initial+handshake)*100
}

// TypeMatrix computes Figure 5: session counts per (network type,
// session kind).
func (a *Analysis) TypeMatrix() map[netmodel.NetworkType][2]int {
	m := make(map[netmodel.NetworkType][2]int)
	for _, s := range a.RequestSessions {
		t := a.Internet.Registry.TypeOf(s.Src)
		e := m[t]
		e[0]++
		m[t] = e
	}
	for _, s := range a.ResponseSessions {
		t := a.Internet.Registry.TypeOf(s.Src)
		e := m[t]
		e[1]++
		m[t] = e
	}
	return m
}

// ExcludedProfile summarizes the Appendix B non-attack backscatter
// sessions (median packets, duration, max pps).
func (a *Analysis) ExcludedProfile() (pkts, durSec, maxPPS float64) {
	var ps, ds, rs []float64
	for _, s := range a.QUICDetector.Excluded {
		ps = append(ps, float64(s.Packets))
		ds = append(ds, s.Duration())
		rs = append(rs, s.MaxPPS())
	}
	return stats.Median(ps), stats.Median(ds), stats.Median(rs)
}
