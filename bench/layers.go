package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quicsand"
	"quicsand/internal/activescan"
	"quicsand/internal/capture"
	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
)

// layerRun is the state of one traced run. The layer passes (plan,
// isolated generate/decode, the traced chain) are repeated while a
// third of the run's seconds lasts, each into a layerRun of its own;
// the first one's tracer becomes the trace file and its metric map
// receives the medians.
type layerRun struct {
	w   *workload
	o   options
	tr  *tracer
	res *runResult
	m   map[string]float64 // per-layer metric values

	in     *netmodel.Internet
	census *activescan.Census

	ingestBusy time.Duration // pure generate/decode time of the month, no analysis behind it
}

// Budget inputs carried through the metric map so they are folded to
// medians with everything else; not reported.
const (
	busyNS   = "_layer_busy_ns"  // Σ bracketed layer time of one pass
	tracedNS = "_traced_pass_ns" // plan + the whole traced chain pass
)

// runTraced measures one workload layer by layer. Set-up runs once and
// is not reported; every pass that produces an analysis goes through
// the same correctness gate as the end-to-end repetitions.
func runTraced(name string, o options) (*runResult, error) {
	start := time.Now()
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer w.cleanup()
	if err := w.setup(o); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	res := &runResult{Workload: name, Traced: true, Seed: o.seed, Metrics: map[string]stat{},
		Fixture: w.path, FixtureMB: float64(w.bytes) / 1e6}

	var lr *layerRun
	var c *chain
	samples := map[string][]float64{}
	for lr == nil || time.Since(start).Seconds() < o.seconds/3 {
		pass := &layerRun{w: w, o: o, tr: newTracer(name), m: map[string]float64{}, res: res}
		pc, err := pass.layers()
		if err != nil {
			return nil, err
		}
		if lr == nil {
			lr, c = pass, pc
		}
		for k, v := range pass.m {
			samples[k] = append(samples[k], v)
		}
	}
	for k, v := range samples {
		lr.m[k] = median(v)
	}
	if w.streaming() {
		if err := lr.streamPass(); err != nil {
			return nil, err
		}
	}
	if err := lr.enginePasses(c, start); err != nil {
		return nil, err
	}

	if err := lr.tr.write(filepath.Join(o.outDir, name+".trace.json")); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if v, ok := lr.m[d.name]; ok {
			res.Metrics[d.name] = stat{Value: v, Unit: d.unit, Q1: v, Q3: v, N: 1}
		}
	}
	res.Correct = res.Failed == 0
	res.Digest = hex.EncodeToString(w.ref[:])
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// layers runs one pass over every layer on the workload's path.
func (lr *layerRun) layers() (*chain, error) {
	gen, err := lr.plan()
	if err != nil {
		return nil, err
	}
	if lr.w.path == "" {
		lr.generate(gen)
		if gen, err = lr.compile(); err != nil { // Feeds consumed the first schedule
			return nil, err
		}
	} else if err := lr.captureLayer(); err != nil {
		return nil, err
	}
	return lr.chainPass(gen)
}

// gate counts one verified pass.
func (lr *layerRun) gate(what string, err error) {
	lr.res.Attempted++
	if err != nil {
		lr.res.fail("%s: %v", what, err)
	}
}

// compile schedules the month onto a fresh generator, as
// quicsand.prepare does.
func (lr *layerRun) compile() (*ibr.Generator, error) {
	cfg := lr.w.cfg
	return scenario.Compile(cfg.Scenario, ibr.Config{
		Seed: cfg.Seed, Scale: cfg.Scale, ResearchThin: cfg.ResearchThin, SkipResearch: cfg.SkipResearch,
		Internet: lr.in, Census: lr.census, Identity: cfg.Identity,
	})
}

// plan brackets the three constructors every entry point runs before
// the first packet (quicsand.prepare).
func (lr *layerRun) plan() (*ibr.Generator, error) {
	tr := lr.tr
	plan := tr.begin("plan", rootSpan)
	sp := tr.begin("plan.netmodel", plan)
	lr.in = netmodel.BuildInternet()
	lr.m["plan.netmodel_ms"] = ms(tr.end(sp, 1))
	sp = tr.begin("plan.activescan", plan)
	lr.census = activescan.Build(lr.in, netmodel.NewRNG(lr.w.cfg.Seed).Fork("census"), activescan.Config{})
	lr.m["plan.activescan_ms"] = ms(tr.end(sp, 1))
	sp = tr.begin("plan.schedule", plan)
	gen, err := lr.compile()
	if err != nil {
		return nil, err
	}
	lr.m["plan.schedule_ms"] = ms(tr.end(sp, uint64(len(gen.Sources()))))
	lr.m["plan.ms"] = ms(tr.end(plan, 1))
	return gen, nil
}

// generate times the month's generation alone: the sequential merger
// into a no-op sink, slab recycling on as in Run.
func (lr *layerRun) generate(gen *ibr.Generator) {
	m := gen.Feeds(1, true)[0]
	a0, _ := mallocs()
	sp := lr.tr.begin("ibr.generate", rootSpan)
	var n uint64
	m.Run(func(*telescope.Packet) { n++ })
	lr.ingestBusy = lr.tr.end(sp, n)
	a1, _ := mallocs()
	g := m.Telemetry()
	lr.m["ibr.generate_ns_per_pkt"] = float64(lr.ingestBusy) / float64(n)
	lr.m["ibr.generate_allocs_per_kpkt"] = float64(a1-a0) / float64(n) * 1000
	lr.m["ibr.payload_cache_hit_ratio"] = ratio(float64(g.PayloadHits), float64(g.PayloadHits+g.PayloadMisses))
	lr.m["ibr.slab_recycle_ratio"] = ratio(float64(g.SlabReuses), float64(g.SlabGets))
}

// drain reads src to the end under one span and returns records read.
func (lr *layerRun) drain(span string, src capture.Source) (uint64, time.Duration, error) {
	sp := lr.tr.begin(span, rootSpan)
	var n uint64
	for {
		if _, err := src.Next(); err != nil {
			d := lr.tr.end(sp, n)
			if errors.Is(err, io.EOF) {
				return n, d, nil
			}
			return n, d, err
		}
		n++
	}
}

// captureLayer times stored-month decode with nothing behind it: the
// workload's own reader, the streamed QSND reader beside the mapped
// one, and the scatter fan-out into a no-op process.
func (lr *layerRun) captureLayer() error {
	w := lr.w
	src, closeSrc, err := w.openCapture()
	if err != nil {
		return err
	}
	own := "capture.qsnd_mmap"
	if w.size.format == capture.FormatPcap {
		own = "capture.pcap"
	}
	n, d, err := lr.drain(own, src)
	closeSrc()
	if err != nil {
		return err
	}
	if n != w.recorded {
		return fmt.Errorf("%s read %d of %d records", own, n, w.recorded)
	}
	lr.ingestBusy = d
	lr.m[own+"_ns_per_pkt"] = float64(d) / float64(n)
	mbps := float64(w.bytes) / 1e6 / d.Seconds()
	if w.size.format == capture.FormatPcap {
		lr.m["capture.pcap_mb_per_s"] = mbps
	} else {
		lr.m["capture.qsnd_mb_per_s"] = mbps
		f, err := os.Open(w.path)
		if err != nil {
			return err
		}
		defer f.Close()
		streamed, err := capture.NewSource(f)
		if err != nil {
			return err
		}
		n, d, err := lr.drain("capture.qsnd_stream", streamed)
		if err != nil {
			return err
		}
		lr.m["capture.qsnd_stream_ns_per_pkt"] = float64(d) / float64(n)
	}
	if w.streaming() {
		return nil // the daemon loop reads Source.Next itself; no scatter
	}

	src, closeSrc, err = w.openCapture()
	if err != nil {
		return err
	}
	defer closeSrc()
	workers := runtime.GOMAXPROCS(0)
	sc := capture.NewScatter(src, workers, true)
	sp := lr.tr.begin("capture.scatter", rootSpan)
	engine.Run(engine.Config{Workers: workers}, sc.Feeds(),
		func(int, *telescope.Packet) bool { return true }, nil)
	d = lr.tr.end(sp, sc.Packets())
	if err := sc.Err(); err != nil {
		return err
	}
	tel := sc.Telemetry()
	lr.m["capture.scatter_ns_per_pkt"] = float64(d) / float64(sc.Packets())
	lr.m["capture.decode_drops"] = float64(tel.DecodeDrops + capture.SourceSkipped(src))
	lr.m["capture.span_bytes"] = float64(tel.SpanBytes)
	return nil
}

// chainPass feeds the month through the benchmark's own chain and
// reports the analysis layers. The batch-filling span also pays the
// copy into the owned batch; the pure generate/decode cost is the
// isolated measurement above.
func (lr *layerRun) chainPass(gen *ibr.Generator) (*chain, error) {
	w, tr := lr.w, lr.tr
	t0 := time.Now()
	var c *chain
	if w.path == "" {
		c = newChain(tr, lr.in, "ibr.generate+copy", false)
		gen.Feeds(1, true)[0].Run(c.add)
	} else {
		src, closeSrc, err := w.openCapture()
		if err != nil {
			return nil, err
		}
		defer closeSrc() // mapped payloads stay valid until here
		ss, ok := src.(capture.SpanSource)
		c = newChain(tr, lr.in, "capture.ingest+copy", !(ok && ss.SpanStable()))
		if w.streaming() {
			c.armDaemon(w.dcfg)
		}
		for {
			p, err := src.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return nil, err
			}
			c.add(p)
		}
	}
	c.finish()
	chainWall := time.Since(t0)

	m, dm := lr.m, &c.dis.Metrics
	m["telescope.offer_ns_per_pkt"] = tr.nsPer("telescope.offer")
	m["telescope.hourly_ns_per_pkt"] = tr.nsPer("telescope.hourly")
	m["telescope.research_ns_per_pkt"] = tr.nsPer("telescope.research")
	m["telescope.research_share"] = ratio(float64(c.research), float64(c.tel.Total))

	m["dissect.ns_per_pkt"] = tr.nsPer("dissect")
	m["dissect.allocs_per_kpkt"] = ratio(float64(c.dissectAllocs), float64(c.dissectAllocated)) * 1000
	m["dissect.parse_fail_share"] = ratio(float64(dm.ParseFailures), float64(dm.Datagrams))
	m["dissect.decrypted_share"] = ratio(float64(dm.Decrypted), float64(dm.Datagrams))
	m["dissect.opener_cache_hit_ratio"] = ratio(float64(dm.OpenerHits), float64(dm.OpenerHits+dm.OpenerMisses))

	sm := c.quicSz.Metrics
	sm.Merge(&c.commonSz.Metrics)
	m["sessions.observe_ns_per_pkt"] = tr.nsPer("sessions")
	m["sessions.active_peak"] = float64(c.sessionsPeak)
	m["sessions.emitted"] = float64(sm.Emitted)
	m["sessions.timeout_splits"] = float64(sm.TimeoutSplits)
	m["sessions.budget_evicted"] = float64(sm.BudgetEvicted)
	m["sessions.flush_ms"] = ms(tr.busy["sessions.flush"])

	m["dosdetect.offer_ns_per_session"] = tr.nsPer("dosdetect")
	m["dosdetect.quic_attacks"] = float64(len(c.quicDet.Attacks))
	m["dosdetect.common_attacks"] = float64(len(c.commonDet.Attacks))
	m["correlate.ms"] = ms(tr.busy["correlate"])

	if c.det != nil {
		m["detect.observe_ns_per_pkt"] = tr.nsPer("detect")
		m["detect.alerts"] = float64(c.alerts)
		m["detect.sources_peak"] = float64(c.sourcesPeak)
		m["detect.evictions"] = float64(c.det.Metrics.SourcesEvicted)
	}
	if sm.BudgetEvicted != 0 {
		lr.res.fail("traced chain: session budget evicted %d sessions", sm.BudgetEvicted)
	}

	// The budget: every bracketed layer's busy time on the path of a
	// single-threaded repetition.
	busy := tr.busy["plan"] + lr.ingestBusy + tr.busy["sessions.flush"] + tr.busy["correlate"]
	for _, stage := range []string{"telescope.offer", "telescope.hourly", "telescope.research", "dissect", "sessions", "dosdetect", "detect", "detect.flush"} {
		busy += tr.busy[stage]
	}
	m[busyNS] = float64(busy)
	m[tracedNS] = float64(tr.busy["plan"] + chainWall)
	return c, nil
}

// parity reports whether the traced chain computed what the program
// computed: telescope totals, deep-validation rejects, session and
// attack counts, and — streaming — the alert count.
func (c *chain) parity(out *outcome) bool {
	a := out.analysis
	ok := c.tel.Total == a.Telescope.Total && c.tel.UDP443 == a.Telescope.UDP443 &&
		c.tel.TCPICMP == a.Telescope.TCPICMP && c.nonQUIC == a.NonQUIC &&
		len(c.quicSessions) == len(a.QUICSessions) &&
		len(c.quicDet.Attacks) == len(a.QUICDetector.Attacks) &&
		len(c.commonDet.Attacks) == len(a.CommonDetector.Attacks)
	if c.det != nil {
		ok = ok && c.alerts == len(out.alerts)
	}
	return ok
}

// enginePasses alternates untraced Workers:1 and Workers:0 repetitions
// for what is left of the run's seconds (at least one each). The
// single-threaded repetition is the baseline the layer budget is
// summed against, the tracing overhead is measured against, and the
// traced chain is checked for parity against.
func (lr *layerRun) enginePasses(c *chain, start time.Time) error {
	w := lr.w
	var w1PPS, w1CPU, w1Wall, w1Ticks, parPPS, parBytes, parTicks, reduceMS []float64
	var last *outcome
	parity := true
	for i := 0; i < 2 || time.Since(start).Seconds() < lr.o.seconds; i++ {
		workers := 1 - i%2 // 1, 0, 1, 0, …
		s, out, err := w.measured(workers)
		lr.gate(fmt.Sprintf("workers=%d repetition", workers), err)
		if err != nil {
			continue
		}
		pps := float64(s.pkts) / s.wall.Seconds()
		if workers == 1 {
			w1PPS = append(w1PPS, pps)
			w1CPU = append(w1CPU, float64(s.cpu))
			w1Wall = append(w1Wall, float64(s.wall))
			var ticks time.Duration
			for _, t := range out.ticks {
				ticks += t
			}
			w1Ticks = append(w1Ticks, float64(ticks))
			if parity && !c.parity(out) {
				parity = false
				lr.res.fail("traced chain disagrees with the workers=1 run")
			}
		} else {
			parPPS = append(parPPS, pps)
			parBytes = append(parBytes, float64(s.bytes)/float64(s.pkts))
			for _, t := range out.ticks {
				parTicks = append(parTicks, ms(t))
			}
			last = out
		}
		if !w.streaming() {
			for _, st := range out.analysis.Pipeline.Stages {
				if st.Name == "reduce" {
					reduceMS = append(reduceMS, ms(st.Wall))
				}
			}
		}
	}
	if len(w1PPS) == 0 || last == nil {
		return fmt.Errorf("%s: no verified workers=1 and workers=0 repetition", w.name)
	}
	m := lr.m
	m["engine.w1_pkts_per_s"] = median(w1PPS)
	m["engine.parallel_speedup"] = median(parPPS) / median(w1PPS)
	var maxItems, sum float64
	for _, n := range last.analysis.Pipeline.ShardItems {
		maxItems = max(maxItems, float64(n))
		sum += float64(n)
	}
	m["engine.alloc_bytes_per_pkt"] = median(parBytes)
	m["engine.shard_skew"] = ratio(maxItems*float64(len(last.analysis.Pipeline.ShardItems)), sum)
	if len(reduceMS) > 0 {
		m["reduce.ms"] = median(reduceMS)
	}

	// What the layer brackets (plus the streaming repetition's own
	// checkpoint ticks) do not cover — queues, merges, slab traffic,
	// the rest of reduce — is the explicit remainder.
	m["engine.unattributed_share"] = 1 - (m[busyNS]+median(w1Ticks))/median(w1CPU)
	m["trace.overhead_share"] = (m[tracedNS]+median(w1Ticks))/median(w1Wall) - 1
	m["trace.parity"] = 0
	if parity {
		m["trace.parity"] = 1
	}
	if w.streaming() {
		// The same ticks the end-to-end runs time, pooled over the
		// Workers:0 repetitions so the p95 has samples beyond it.
		m["ckpt.tick_ms_p50"] = median(parTicks)
		m["ckpt.tick_ms_p95"] = percentile(parTicks, 95)
		m["stream.tax_share"] = 1 - ratio(median(parPPS), m["stream.batch_ref_pkts_per_s"])
	}
	return nil
}

// streamPass drives the daemon's core with GOMAXPROCS shards, as the
// end-to-end workload does, with Offer, Checkpoint() and Encode()
// bracketed apart. Offer is charged the producer thread's own CPU
// time, so neither the shard work it dispatches nor the time it waits
// on a full shard queue is counted.
func (lr *layerRun) streamPass() error {
	w, tr, m := lr.w, lr.tr, lr.m
	ref, err := w.batchReference()
	lr.gate("batch reference replay", err)
	if err != nil {
		return nil
	}
	m["stream.batch_ref_pkts_per_s"] = ref

	src, closeSrc, err := w.openCapture()
	if err != nil {
		return err
	}
	defer closeSrc()
	scfg := quicsand.StreamConfig{Config: w.cfg, Detect: &w.dcfg, MaxActiveSessions: sessionBudget}
	s, err := quicsand.NewStreamer(scfg)
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	out := &outcome{}
	var offerCPU, encodeWall time.Duration
	var offerAllocs, captured, offered, imageBytes uint64
	var pause, encode []float64
	var image []byte
	next := w.size.ckptEvery
	pkts := make([]telescope.Packet, 0, traceBatch)
	for done := false; !done; {
		// Mapped payloads are stable, so a batch is struct copies only.
		batch := tr.begin("batch", rootSpan)
		sp := tr.begin("capture.ingest+copy", batch)
		pkts = pkts[:0]
		for len(pkts) < traceBatch {
			p, err := src.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					s.Close()
					return err
				}
				done = true
				break
			}
			pkts = append(pkts, *p)
		}
		tr.end(sp, uint64(len(pkts)))

		for i := 0; i < len(pkts); {
			a0, _ := mallocs()
			c0 := threadCPU()
			sp = tr.begin("stream.offer", batch)
			n := uint64(0)
			for tick := false; i < len(pkts) && !tick; i++ {
				n++
				if s.Offer(&pkts[i]) {
					captured++
					tick = captured >= next
				}
			}
			tr.end(sp, n)
			offerCPU += threadCPU() - c0
			a1, _ := mallocs()
			offerAllocs += a1 - a0
			offered += n
			if captured < next {
				continue
			}
			next += w.size.ckptEvery
			sp = tr.begin("ckpt.pause", batch)
			ck := s.Checkpoint()
			pause = append(pause, ms(tr.end(sp, 1)))
			sp = tr.begin("ckpt.encode", batch)
			image = ck.Encode()
			d := tr.end(sp, uint64(len(image)))
			encode = append(encode, ms(d))
			encodeWall += d
			imageBytes += uint64(len(image))
			tr.sample(sp, "position", ck.Position())
			out.alerts = append(out.alerts, ck.Alerts...)
		}
		tr.end(batch, uint64(len(pkts)))
	}
	sp := tr.begin("stream.close", rootSpan)
	out.final = s.Close()
	tr.end(sp, 1)
	out.alerts = append(out.alerts, out.final.Alerts...)
	sp = tr.begin("reduce", rootSpan)
	out.analysis = out.final.Analysis()
	m["reduce.ms"] = ms(tr.end(sp, uint64(len(out.analysis.QUICSessions))))
	lr.gate("traced stream pass", w.verify(out))

	m["stream.offer_ns_per_pkt"] = float64(offerCPU) / float64(offered)
	m["stream.offer_allocs_per_kpkt"] = float64(offerAllocs) / float64(offered) * 1000
	m["ckpt.pause_ms_p50"] = median(pause)
	m["ckpt.pause_ms_p95"] = percentile(pause, 95)
	m["ckpt.encode_ms_p50"] = median(encode)
	m["ckpt.encode_mb_per_s"] = ratio(float64(imageBytes)/1e6, encodeWall.Seconds())
	m["ckpt.image_bytes"] = float64(len(image))

	if image != nil {
		sp = tr.begin("ckpt.resume", rootSpan)
		resumed, err := quicsand.ResumeStreamer(scfg, image)
		m["ckpt.resume_ms"] = ms(tr.end(sp, uint64(len(image))))
		if err != nil {
			lr.gate("resume from the last image", err)
		} else {
			resumed.Close()
		}
	}
	return nil
}
