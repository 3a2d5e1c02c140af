package main

import (
	"quicsand/internal/correlate"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// traceBatch is how many packets one batch span covers: two clock
// reads then bracket thousands of calls into one layer.
const traceBatch = 4096

// allocSampleEvery thins the allocation brackets around the dissect
// stage: reading the allocator's counters stops the world, so only
// every n-th batch pays for it and dissect.allocs_per_kpkt is the
// sampled batches' ratio.
const allocSampleEvery = 8

// chain is the benchmark's own copy of one pipeline shard, built from
// the layers' public functions so that every layer can be bracketed
// from outside the program. It runs quicsand's per-packet chain
// (telescope → research filter → dissect → sessions → dosdetect →
// detect) stage-at-a-time over batches it owns; trace.parity checks
// that it still computes what the program computes.
type chain struct {
	tr *tracer
	in *netmodel.Internet

	tel          *telescope.Telescope
	hourlySource *telescope.HourlyCounter
	hourlyType   *telescope.HourlyCounter
	sweep        *sessions.TimeoutSweep
	quicSz       *sessions.Sessionizer
	commonSz     *sessions.Sessionizer
	commonDet    *dosdetect.Detector
	quicDet      *dosdetect.Detector
	dis          *dissect.Dissector
	det          *detect.Shard // streaming workload only

	quicSessions []*sessions.Session
	pending      []*sessions.Session // common sessions awaiting the dosdetect stage
	nonQUIC      uint64
	research     uint64
	alerts       int

	// The open batch: packets (and, for sources that reuse their
	// payload buffer, the payload bytes) are copied in, so pointers
	// stay valid across the stages.
	pkts        []telescope.Packet
	arena       []byte
	copyPayload bool
	feedName    string
	batch, feed int // open span ids

	// Stage scratch, reused across batches.
	idx     []int
	common  []int
	quic    []dissected
	results []dissect.Result

	sessionsPeak int
	sourcesPeak  int
	// Allocations and datagrams of the sampled dissect brackets.
	batches          uint64
	dissectAllocs    uint64
	dissectAllocated uint64
}

// dissected is a sanitized QUIC packet with its (copied) dissection;
// res is nil for payload-less records.
type dissected struct {
	i   int
	res *dissect.Result
}

// newChain wires the shard exactly as quicsand.newPipelineShard does.
// feedName names the span that fills a batch ("ibr.generate" or
// "capture.ingest"); copyPayload is set for sources whose payload
// bytes do not outlive the next read.
func newChain(tr *tracer, in *netmodel.Internet, feedName string, copyPayload bool) *chain {
	tum := in.Registry.ByASN(netmodel.ASNTUM).Prefixes[0]
	rwth := in.Registry.ByASN(netmodel.ASNRWTH).Prefixes[0]
	c := &chain{
		tr: tr, in: in,
		tel: telescope.New(),
		hourlySource: telescope.NewHourlyCounter(func(p *telescope.Packet) string {
			switch {
			case !p.IsQUICCandidate():
				return ""
			case tum.Contains(p.Src):
				return "TUM-Scans"
			case rwth.Contains(p.Src):
				return "RWTH-Scans"
			}
			return "Other"
		}),
		hourlyType: telescope.NewHourlyCounter(func(p *telescope.Packet) string {
			switch {
			case p.IsRequest():
				return "Requests"
			case p.IsResponse():
				return "Responses"
			}
			return ""
		}),
		sweep:     sessions.NewTimeoutSweep(),
		commonDet: dosdetect.NewDetector(dosdetect.VectorCommon),
		quicDet:   dosdetect.NewDetector(dosdetect.VectorQUIC),
		dis:       dissect.NewDissector(),

		pkts:        make([]telescope.Packet, 0, traceBatch),
		copyPayload: copyPayload,
		feedName:    feedName,
		results:     make([]dissect.Result, traceBatch),
	}
	if copyPayload {
		c.arena = make([]byte, 0, traceBatch*1500)
	}
	for i := range c.results {
		c.results[i].Packets = make([]dissect.PacketInfo, 0, 4) // room for the coalesced packets of one datagram
	}
	c.commonDet.DropExcluded = true
	c.quicSz = sessions.NewSessionizer(func(s *sessions.Session) { c.quicSessions = append(c.quicSessions, s) })
	c.quicSz.GapRecorder = c.sweep.RecordGap
	c.commonSz = sessions.NewSessionizer(func(s *sessions.Session) { c.pending = append(c.pending, s) })
	c.open()
	return c
}

// armDaemon attaches what only the streaming daemon runs: the
// sliding-window detector bank and the session budget.
func (c *chain) armDaemon(dcfg detect.Config) {
	c.det = detect.NewShard(dcfg)
	c.quicSz.MaxActive = sessionBudget
	c.commonSz.MaxActive = sessionBudget
}

func (c *chain) open() {
	c.tr.reserve(32) // no span-slice growth inside a batch's brackets
	c.batch = c.tr.begin("batch", rootSpan)
	c.feed = c.tr.begin(c.feedName, c.batch)
}

// add copies one packet into the open batch and runs the stages when
// the batch is full. It is the sink of Merger.Run and of the capture
// read loop.
func (c *chain) add(p *telescope.Packet) {
	c.pkts = append(c.pkts, *p)
	if c.copyPayload && len(p.Payload) > 0 {
		q := &c.pkts[len(c.pkts)-1]
		if cap(c.arena)-len(c.arena) >= len(p.Payload) {
			// Never regrows, so earlier packets' aliases stay valid.
			off := len(c.arena)
			c.arena = append(c.arena, p.Payload...)
			q.Payload = c.arena[off:len(c.arena):len(c.arena)]
		} else {
			q.Payload = append([]byte(nil), p.Payload...)
		}
	}
	if len(c.pkts) == traceBatch {
		c.stages()
		c.open()
	}
}

// stages runs the open batch through the chain, one layer at a time.
func (c *chain) stages() {
	tr, b := c.tr, c.batch
	tr.end(c.feed, uint64(len(c.pkts)))

	sp := tr.begin("telescope.offer", b)
	c.idx = c.idx[:0]
	for i := range c.pkts {
		if c.tel.Offer(&c.pkts[i]) {
			c.idx = append(c.idx, i)
		}
	}
	tr.end(sp, uint64(len(c.pkts)))
	tr.sample(sp, "captured_total", c.tel.Total)

	sp = tr.begin("telescope.hourly", b)
	for _, i := range c.idx {
		c.hourlySource.Capture(&c.pkts[i])
	}
	tr.end(sp, uint64(len(c.idx)))

	// §5.1 sanitization: research scanners stop here.
	sp = tr.begin("telescope.research", b)
	captured := len(c.idx)
	keep := c.idx[:0]
	for _, i := range c.idx {
		if !c.in.IsResearchSource(c.pkts[i].Src) {
			keep = append(keep, i)
		}
	}
	c.idx = keep
	c.research += uint64(captured - len(keep))
	tr.end(sp, uint64(captured))
	tr.sample(sp, "research_total", c.research)

	c.common, c.quic = c.common[:0], c.quic[:0]
	datagrams := uint64(0)
	sampled := c.batches%allocSampleEvery == 0
	c.batches++
	var a0 uint64
	if sampled {
		a0, _ = mallocs()
	}
	sp = tr.begin("dissect", b)
	for _, i := range c.idx {
		p := &c.pkts[i]
		switch p.Proto {
		case telescope.ProtoTCP, telescope.ProtoICMP:
			c.common = append(c.common, i)
		case telescope.ProtoUDP:
			if !p.IsQUICCandidate() {
				continue
			}
			var res *dissect.Result
			if p.Payload != nil {
				datagrams++
				r, err := c.dis.Dissect(p.Payload)
				if err != nil {
					c.nonQUIC++
					continue
				}
				// The dissector reuses its Result; later stages need this
				// packet's, so copy what they read (types, versions, CIDs —
				// the CIDs alias the batch's payload bytes).
				res = &c.results[len(c.quic)]
				res.Packets = append(res.Packets[:0], r.Packets...)
				res.Valid = r.Valid
			}
			c.quic = append(c.quic, dissected{i, res})
		}
	}
	tr.end(sp, datagrams)
	if sampled {
		a1, _ := mallocs()
		c.dissectAllocs += a1 - a0
		c.dissectAllocated += datagrams
	}
	tr.sample(sp, "parse_failures_total", c.dis.Metrics.ParseFailures)

	sp = tr.begin("telescope.hourly", b)
	for _, q := range c.quic {
		c.hourlyType.Capture(&c.pkts[q.i])
	}
	tr.end(sp, uint64(len(c.quic)))

	sp = tr.begin("sessions", b)
	for _, i := range c.common {
		c.commonSz.Observe(&c.pkts[i], nil)
	}
	for _, q := range c.quic {
		p := &c.pkts[q.i]
		c.sweep.RecordSource(p.Src)
		c.quicSz.Observe(p, q.res)
	}
	tr.end(sp, uint64(len(c.common)+len(c.quic)))
	active := c.quicSz.ActiveSessions() + c.commonSz.ActiveSessions()
	c.sessionsPeak = max(c.sessionsPeak, active)
	tr.sample(sp, "active", uint64(active))
	tr.sample(sp, "emitted_total", c.quicSz.Metrics.Emitted+c.commonSz.Metrics.Emitted)

	c.offerPending(b)

	if c.det != nil {
		sp = tr.begin("detect", b)
		for _, q := range c.quic {
			c.det.Observe(&c.pkts[q.i], q.res)
		}
		tr.end(sp, uint64(len(c.quic)))
		c.sourcesPeak = max(c.sourcesPeak, c.det.Sources())
		tr.sample(sp, "sources", uint64(c.det.Sources()))
		tr.sample(sp, "alerts_opened_total", c.det.Metrics.AlertsOpened)
	}

	tr.end(b, uint64(len(c.pkts)))
	c.pkts, c.arena = c.pkts[:0], c.arena[:0]
}

// offerPending is the dosdetect stage: the common-vector sessions the
// sessions stage emitted, offered in emission order.
func (c *chain) offerPending(parent int) {
	sp := c.tr.begin("dosdetect", parent)
	for _, s := range c.pending {
		c.commonDet.Offer(s)
	}
	c.tr.end(sp, uint64(len(c.pending)))
	c.tr.sample(sp, "common_attacks_total", uint64(len(c.commonDet.Attacks)))
	c.pending = c.pending[:0]
}

// finish drains the last partial batch and performs the end-of-stream
// work the program's reduce step does on these layers: flush, the
// QUIC-vector detector over the response sessions, and correlation.
func (c *chain) finish() {
	tr := c.tr
	c.stages()

	sp := tr.begin("sessions.flush", rootSpan)
	c.quicSz.Flush()
	c.commonSz.Flush()
	tr.end(sp, c.quicSz.Metrics.FlushEmitted+c.commonSz.Metrics.FlushEmitted)
	c.offerPending(rootSpan)

	if c.det != nil {
		sp = tr.begin("detect.flush", rootSpan)
		c.det.Flush()
		c.alerts = len(c.det.Drain())
		tr.end(sp, uint64(c.alerts))
	}

	sessions.SortCanonical(c.quicSessions)
	sp = tr.begin("dosdetect", rootSpan)
	offered := uint64(0)
	for _, s := range c.quicSessions {
		if s.Kind() == sessions.KindResponseOnly {
			c.quicDet.Offer(s)
			offered++
		}
	}
	tr.end(sp, offered)
	tr.sample(sp, "quic_attacks_total", uint64(len(c.quicDet.Attacks)))

	sp = tr.begin("correlate", rootSpan)
	correlate.Correlate(c.quicDet.Sorted(), c.commonDet.Sorted())
	tr.end(sp, uint64(len(c.quicDet.Attacks)))
}
