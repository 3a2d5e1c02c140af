package ibr

import (
	"math"
	"slices"
	"sort"
	"time"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// measurementSeconds is the simulated capture length.
var measurementSeconds = telescope.MeasurementEnd.Sub(telescope.MeasurementStart).Seconds()

func tsAt(offsetSec float64) telescope.Timestamp {
	return telescope.TS(telescope.MeasurementStart) + telescope.Timestamp(offsetSec*1000)
}

// ---------------------------------------------------------------------------
// Research scanners (Figure 2's 98.5 % bias)

// researchScan emits one full-IPv4 sweep's telescope slice: 2^23
// single packets from one university host, thinned by `thin` with
// per-record weight, spread over the scan duration. Packets are
// written into slabChunk-record chunks (see chunks for when a chunk
// returns to the pool).
type researchScan struct {
	src      netmodel.Addr
	start    telescope.Timestamp
	duration time.Duration
	total    uint64 // packets that reach the telescope (2^23)
	weight   uint32 // packets represented per emitted record
	emit     uint64 // records to emit (total/weight)
	i        uint64
	rng      *netmodel.RNG
	chunks   chunks
}

func newResearchScan(rng *netmodel.RNG, src netmodel.Addr, startSec float64, dur time.Duration, thinWeight uint32) researchScan {
	total := netmodel.TelescopePrefix.Size()
	if thinWeight == 0 {
		thinWeight = 1
	}
	return researchScan{
		src:      src,
		start:    tsAt(startSec),
		duration: dur,
		total:    total,
		weight:   thinWeight,
		emit:     total / uint64(thinWeight),
		rng:      rng,
		chunks:   chunks{size: slabChunk},
	}
}

func (r *researchScan) StartTime() telescope.Timestamp { return r.start }

func (r *researchScan) Src() netmodel.Addr { return r.src }

func (r *researchScan) plannedPackets() uint64 { return r.emit }

func (r *researchScan) next(pool *slabPool) (*telescope.Packet, bool) {
	if r.i >= r.emit {
		r.chunks.release(pool)
		return nil, false
	}
	if r.chunks.used() {
		r.chunks.fresh(pool, int(min(slabChunk, r.emit-r.i)))
	}
	// Records advance linearly through the scan window; the zmap-style
	// address permutation appears as a uniform draw from the prefix.
	frac := float64(r.i) / float64(r.emit)
	ts := r.start + telescope.Timestamp(frac*r.duration.Seconds()*1000)
	p := r.chunks.take()
	*p = telescope.Packet{
		TS:      ts,
		Src:     r.src,
		Dst:     netmodel.TelescopePrefix.Random(r.rng),
		SrcPort: 40000 + uint16(r.i%20000),
		DstPort: telescope.PortQUIC,
		Proto:   telescope.ProtoUDP,
		Size:    1200,
		Weight:  r.weight,
	}
	r.i++
	return p, true
}

// ---------------------------------------------------------------------------
// Malicious scanners (bot request sessions)

// botSpec describes one scanning bot, and is the Source that emits it;
// each visit becomes one request session after the 5-minute timeout.
// Its packets exist only from its first next until its last: built
// whole into one slab, handed out through chunks.
type botSpec struct {
	src      netmodel.Addr
	version  wire.Version
	visits   []float64 // session start offsets (seconds)
	pktsPer  int       // mean packets per session
	srcPort  uint16
	rng      netmodel.RNG
	tpl      *Templates
	withload bool // carry real QUIC payload bytes
	built    bool
	chunks   chunks
}

func (b *botSpec) StartTime() telescope.Timestamp { return tsAt(b.visits[0]) }

func (b *botSpec) Src() netmodel.Addr { return b.src }

// plannedPackets is the bot's expected packet count: pktsPer per visit.
func (b *botSpec) plannedPackets() uint64 { return uint64(len(b.visits) * b.pktsPer) }

func (b *botSpec) next(pool *slabPool) (*telescope.Packet, bool) {
	if !b.built {
		b.chunks.cur, b.built = b.build(pool), true
	}
	if b.chunks.used() {
		b.chunks.release(pool)
		return nil, false
	}
	return b.chunks.take(), true
}

// build materializes all of a bot's packets into one value-typed slab.
// Every packet aliases the shared per-version scan template as its
// payload (read-only — see Templates.ScanPacket).
func (b *botSpec) build(pool *slabPool) []telescope.Packet {
	payload := b.tpl.ScanPacket(b.version)
	out := pool.get(len(b.visits) * (b.pktsPer + 2))
	for _, visit := range b.visits {
		n := BotMinPacketsPerVisit + int(b.rng.Exp(float64(b.pktsPer-1)))
		if n > BotMaxPacketsPerVisit {
			n = BotMaxPacketsPerVisit
		}
		// The exponential tail regularly exceeds the mean-based
		// estimate; grow through the pool so the build stays inside
		// recycled arenas.
		out = pool.ensure(out, n)
		at := visit
		for i := 0; i < n; i++ {
			out = append(out, telescope.Packet{
				TS:      tsAt(at),
				Src:     b.src,
				Dst:     netmodel.TelescopePrefix.Random(&b.rng),
				SrcPort: b.srcPort,
				DstPort: telescope.PortQUIC,
				Proto:   telescope.ProtoUDP,
				Size:    clampSize(len(payload)),
			})
			if b.withload {
				out[len(out)-1].Payload = payload
			}
			// Scan gaps: bursty with occasional minute-scale pauses so
			// the Figure 4 sweep shows its 1→5-minute knee.
			gap := b.rng.Exp(20)
			if b.rng.Float64() < 0.04 {
				gap += 60 + b.rng.Float64()*180 // 1–4 minute lull
			}
			at += gap
		}
	}
	// Visits may overlap in time; restore the source-order contract.
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// ---------------------------------------------------------------------------
// Flood backscatter

// Rate-curve shapes for flood backscatter (RateCurve.Shape of a flood
// phase). shapeBurst is the paper's profile — a sustained base rate
// plus a two-minute peak window; shapeSquare spreads the whole packet
// budget uniformly; shapeRamp ramps density linearly toward the
// attack's end (an escalating flood).
const (
	shapeBurst uint8 = iota
	shapeSquare
	shapeRamp
)

// floodSpec is one planned DoS event's backscatter as seen at the
// telescope, and the Source that streams it: a planned flood is this
// value in its generator's slab (planSlab), holding its RNG by value.
// Its working state exists only while it is live (floodLive).
type floodSpec struct {
	vector    int // 0 QUIC, 1 TCP, 2 ICMP
	victim    netmodel.Addr
	version   wire.Version
	startSec  float64
	durSec    float64
	peakPkts  int     // packets inside the peak minute
	basePkts  int     // packets spread across the full duration
	nAddrs    int     // spoofed client addresses landing in scope
	nPorts    int     // spoofed client ports
	scidRatio float64 // unique SCIDs per (addr,port) tuple (QUIC only)
	rng       netmodel.RNG
	tpl       *Templates

	// Scenario knobs (zero values reproduce the paper's profile
	// draw-for-draw; see DESIGN.md §11).
	shape          uint8 // rate-curve shape (shapeBurst/Square/Ramp)
	amp            int   // response datagrams per backscatter arrival (0/1 = none)
	retryMitigated bool  // victim answers with Retry crypto challenges

	live *floodLive // set from activation until exhaustion
	done bool       // exhausted
}

// floodChunk bounds a flood refill: at most this many packets, whole
// arrivals only, so an amplified arrival's datagrams never straddle two
// chunks (an arrival of more than floodChunk datagrams fills one alone).
const floodChunk = 32

// floodLive is a live flood's working state: its sorted arrival
// offsets, spoofed tuples, SCID assignment, payload cache and packet
// chunks. It is drawn from the shard pool at activation and returned
// there at exhaustion, so a month holds one per live flood, not one per
// planned flood.
type floodLive struct {
	base  telescope.Timestamp // tsAt(startSec)
	offs  []uint32            // arrival i at base+offs[i] ms, ascending
	next  int                 // first arrival not yet written
	addrs []netmodel.Addr
	ports []uint16
	// QUIC only: the tuple → SCID index, and the SCIDs in creation
	// order so SCID reuse draws deterministically (map iteration
	// order would leak scheduler state into the SCID histogram).
	scids    map[uint32]int32
	scidPool [][scidLen]byte
	payloads PayloadCache
	chunks   chunks
}

func (f *floodSpec) StartTime() telescope.Timestamp { return tsAt(f.startSec) }

func (f *floodSpec) Src() netmodel.Addr { return f.victim }

// plannedPackets is the exact number of packets the flood emits.
func (f *floodSpec) plannedPackets() uint64 {
	return FloodPackets(f.peakPkts, f.basePkts, f.durSec, f.shape, f.amp)
}

func (f *floodSpec) next(pool *slabPool) (*telescope.Packet, bool) {
	l := f.live
	if l == nil {
		if f.done {
			return nil, false
		}
		l = f.activate(pool)
		f.live = l
	}
	if l.chunks.used() {
		if l.next == len(l.offs) {
			l.chunks.release(pool)
			pool.putFloodLive(l)
			f.live, f.done = nil, true
			return nil, false
		}
		f.refill(pool, l)
	}
	return l.chunks.take(), true
}

// activate draws the flood's arrival times, sorts them and keeps them
// as millisecond offsets, then draws the spoofed addresses and ports.
// The offsets are exact: base+offs[i] is tsAt(startSec+at) for the
// i-th sorted arrival at.
func (f *floodSpec) activate(pool *slabPool) *floodLive {
	l := pool.floodLive()
	s := &pool.arrivals
	times := s.sort(f.drawArrivals(s))
	l.base = tsAt(f.startSec)
	l.offs = slices.Grow(l.offs[:0], len(times))
	for _, at := range times {
		l.offs = append(l.offs, uint32(tsAt(f.startSec+at)-l.base))
	}
	l.next = 0
	l.addrs = slices.Grow(l.addrs[:0], f.nAddrs)
	for i := 0; i < f.nAddrs; i++ {
		l.addrs = append(l.addrs, netmodel.TelescopePrefix.Random(&f.rng))
	}
	l.ports = slices.Grow(l.ports[:0], f.nPorts)
	for i := 0; i < f.nPorts; i++ {
		l.ports = append(l.ports, uint16(1024+f.rng.Intn(64000)))
	}
	if f.vector == VectorQUIC {
		if l.scids == nil {
			l.scids = make(map[uint32]int32)
		}
		clear(l.scids)
		l.scidPool = l.scidPool[:0]
		clear(l.payloads.m)
		l.payloads.t, l.payloads.Stats = f.tpl, pool.stats
	}
	per := max(floodChunk/max(f.amp, 1), 1)
	l.chunks = chunks{size: per * max(f.amp, 1)}
	return l
}

// refill writes the next chunk: as many whole arrivals as fit, each
// with its amp response datagrams, continuing the flood's own draws
// (per arrival the spoofed tuple, then each datagram's kind or flags).
// QUIC payloads are interned per (version, kind, SCID): floods pool
// SCIDs per spoofed tuple, so one attack touches only a handful of
// distinct datagrams, each built once and shared read-only by every
// packet that repeats it.
func (f *floodSpec) refill(pool *slabPool, l *floodLive) {
	amp := max(f.amp, 1)
	n := min(l.chunks.size/amp, len(l.offs)-l.next)
	out := l.chunks.fresh(pool, n*amp)
	k := 0
	for _, off := range l.offs[l.next : l.next+n] {
		ts := l.base + telescope.Timestamp(off)
		dst := l.addrs[f.rng.Intn(len(l.addrs))]
		dport := l.ports[f.rng.Intn(len(l.ports))]

		// Amplification: the victim answers each spoofed packet with
		// amp response datagrams to the same spoofed tuple (amp = 1
		// reproduces the paper's draw sequence exactly).
		switch f.vector {
		case VectorQUIC: // QUIC backscatter with real wire bytes
			tupleKey := uint32(dst)<<16 ^ uint32(dport)
			idx, ok := l.scids[tupleKey]
			if !ok {
				if f.rng.Float64() >= f.scidRatio && len(l.scidPool) > 0 {
					// Reuse an existing context (mvfst-style pooling).
					idx = int32(f.rng.Intn(len(l.scidPool)))
				} else {
					// A fresh per-tuple context.
					idx = int32(len(l.scidPool))
					l.scidPool = append(l.scidPool, [scidLen]byte{})
					f.rng.Bytes(l.scidPool[idx][:])
				}
				l.scids[tupleKey] = idx
			}
			scid := l.scidPool[idx][:]
			for a := 0; a < amp; a++ {
				var kind responseKind
				if f.retryMitigated {
					kind = pickRetryKind(&f.rng)
				} else {
					kind = pickResponseKind(&f.rng)
				}
				payload := l.payloads.ResponsePacket(f.version, kind, scid)
				out[k] = telescope.Packet{
					TS: ts, Src: f.victim, Dst: dst,
					SrcPort: telescope.PortQUIC, DstPort: dport,
					Proto: telescope.ProtoUDP, Size: clampSize(len(payload)),
					Payload: payload,
				}
				k++
			}
		case VectorTCP: // TCP SYN-ACK / RST backscatter
			for a := 0; a < amp; a++ {
				flags := telescope.FlagSYN | telescope.FlagACK
				if f.rng.Float64() < 0.3 {
					flags = telescope.FlagRST
				}
				sport := uint16(80)
				if f.rng.Float64() < 0.5 {
					sport = 443
				}
				out[k] = telescope.Packet{
					TS: ts, Src: f.victim, Dst: dst,
					SrcPort: sport, DstPort: dport,
					Proto: telescope.ProtoTCP, Flags: flags, Size: 40,
				}
				k++
			}
		default: // ICMP echo reply / unreachable
			for a := 0; a < amp; a++ {
				out[k] = telescope.Packet{
					TS: ts, Src: f.victim, Dst: dst,
					Proto: telescope.ProtoICMP, Flags: 0, Size: 56,
				}
				k++
			}
		}
	}
	l.next += n
}

// drawArrivals draws the attack's arrival offsets (seconds from its
// start) into s, unsorted, as at most two runs: raw[:split] drawn from a
// and raw[split:] from b.
func (f *floodSpec) drawArrivals(s *arrivalScratch) (raw []float64, split int, a, b span) {
	whole := span{0, f.durSec}
	if f.shape == shapeSquare || f.shape == shapeRamp {
		n := f.peakPkts + f.basePkts
		raw = s.draws(n + 2)
		// Bracket packets pin the observed session to the attack's true
		// extent: victims emit backscatter from first to last spoofed
		// packet.
		raw = append(raw, 0, f.durSec)
		for i := 0; i < n; i++ {
			u := f.rng.Float64()
			if f.shape == shapeRamp {
				// Escalating: density grows linearly toward the end
				// (CDF t², so t = dur·√u).
				u = math.Sqrt(u)
			}
			raw = append(raw, u*f.durSec)
		}
		return raw, 0, span{}, whole
	}
	// shapeBurst, the paper's profile. Burst phase: peakPkts per minute
	// sustained over a two-minute window placed uniformly inside the
	// attack. A 120-second window always covers one full wall-clock
	// minute regardless of phase, so the Moore max-pps metric observes
	// the intended rate.
	window := 120.0
	if f.durSec < window {
		window = f.durSec
	}
	burstStart := 0.0
	if f.durSec > window {
		burstStart = f.rng.Float64() * (f.durSec - window)
	}
	burstPkts := int(float64(f.peakPkts) * window / 60)
	raw = s.draws(burstPkts + 2 + f.basePkts)
	for i := 0; i < burstPkts; i++ {
		raw = append(raw, burstStart+f.rng.Float64()*window)
	}
	split = len(raw)
	// The brackets and the base rate span the whole attack.
	raw = append(raw, 0, f.durSec)
	for i := 0; i < f.basePkts; i++ {
		raw = append(raw, f.rng.Float64()*f.durSec)
	}
	return raw, split, span{burstStart, burstStart + window}, whole
}

// ---------------------------------------------------------------------------
// Misconfiguration noise (Appendix B's excluded response sessions)

// misconfigSpec describes one misconfigured responder, and is the
// Source that emits it, as botSpec is a bot's.
type misconfigSpec struct {
	src     netmodel.Addr
	version wire.Version
	visits  []float64
	rng     netmodel.RNG
	tpl     *Templates
	built   bool
	chunks  chunks
}

func (m *misconfigSpec) StartTime() telescope.Timestamp { return tsAt(m.visits[0]) }

func (m *misconfigSpec) Src() netmodel.Addr { return m.src }

// plannedPackets is the responder's expected packet count: the mean of
// the per-visit range for every visit.
func (m *misconfigSpec) plannedPackets() uint64 {
	return uint64(len(m.visits) * (MisconfMinPacketsPerVisit + MisconfMaxPacketsPerVisit) / 2)
}

func (m *misconfigSpec) next(pool *slabPool) (*telescope.Packet, bool) {
	if !m.built {
		m.chunks.cur, m.built = m.build(pool), true
	}
	if m.chunks.used() {
		m.chunks.release(pool)
		return nil, false
	}
	return m.chunks.take(), true
}

func (m *misconfigSpec) build(pool *slabPool) []telescope.Packet {
	var scid [scidLen]byte
	m.rng.Bytes(scid[:])
	payloads := NewPayloadCache(m.tpl)
	payloads.Stats = pool.stats
	// 17 = 5+Intn(13) upper bound: the arena never regrows.
	out := pool.get(len(m.visits) * 17)
	for _, visit := range m.visits {
		// Appendix B profile: ~11 packets over ~7 s at ~0.18 max pps.
		n := MisconfMinPacketsPerVisit + m.rng.Intn(MisconfMaxPacketsPerVisit-MisconfMinPacketsPerVisit+1)
		at := visit
		dst := netmodel.TelescopePrefix.Random(&m.rng)
		dport := uint16(1024 + m.rng.Intn(64000))
		for i := 0; i < n; i++ {
			payload := payloads.ResponsePacket(m.version, pickResponseKind(&m.rng), scid[:])
			out = append(out, telescope.Packet{
				TS: tsAt(at), Src: m.src, Dst: dst,
				SrcPort: telescope.PortQUIC, DstPort: dport,
				Proto: telescope.ProtoUDP, Size: clampSize(len(payload)),
				Payload: payload,
			})
			at += m.rng.Exp(0.8)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}
