// Package detect implements the streaming counterpart of the batch
// detectors: ring-buffered sliding-window detectors over per-source
// telescope traffic, emitting a deterministic alert stream.
//
// Three windowed quantities are watched per source — exactly the
// thresholds the paper applies post-hoc (§5.2, Figure 9), evaluated
// online: packet rate (Moore et al.'s intensity criterion), the
// Initial-packet fraction of QUIC traffic, and the unique-CID/packet
// ratio that separates flood backscatter from ordinary responders.
//
// # Alert episodes
//
// An alert is an episode, not a sample: it opens when its windowed
// condition first crosses the threshold, stays open while the source
// keeps transmitting (every packet extends End and updates the peak),
// and closes only when the source goes quiet for longer than one full
// window, or at Flush. The closing rule makes episode counts provable
// from a scheduling ledger: inside one burst of activity whose
// inter-packet gaps never exceed the window, a source produces at
// most one episode per kind — however the windowed value wobbles —
// and an episode boundary always witnesses a real >window silence.
//
// # Window coverage
//
// The ring holds Buckets fixed-width buckets; the window sum at
// packet time t always covers at least [t−Weff, t] where
// Weff = Window − Window/Buckets (the partial leading bucket is the
// only slack). The oracle's guaranteed-alert bound builds on exactly
// this: any ≤Weff interval holding ≥ RateCount packets forces the
// rate condition true at that interval's last packet.
//
// # Determinism
//
// Sources are partitioned over shards by address (one source, one
// shard), so per-source window state sees the identical packet
// subsequence at any worker count; per-shard alert lists are sorted
// canonically and merged with the loser tree. Only a MaxSources
// budget breaks this invariance (eviction depends on shard
// residency), mirroring the sessionizer's MaxActive trade.
package detect

import (
	"encoding/json"
	"io"
	"sort"

	"quicsand/internal/dissect"
	"quicsand/internal/losertree"
	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Kind identifies which windowed detector raised an alert.
type Kind uint8

// Alert kinds.
const (
	KindRate            Kind = iota // per-source packet rate above RatePPS
	KindInitialFraction             // Initial share of QUIC packets above threshold
	KindCIDRatio                    // unique-CID/packet ratio above threshold
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRate:
		return "rate"
	case KindInitialFraction:
		return "initial-fraction"
	case KindCIDRatio:
		return "cid-ratio"
	}
	return "unknown"
}

// Alert is one closed detector episode.
type Alert struct {
	Kind    Kind
	Src     netmodel.Addr
	Start   telescope.Timestamp
	End     telescope.Timestamp
	Peak    float64
	PeakTS  telescope.Timestamp
	Packets uint64
}

// MarshalJSON renders the alert with human-readable kind and dotted
// source address — the JSON-lines form the daemon's -alerts stream
// emits. Timestamps stay epoch milliseconds (the telescope clock).
func (a Alert) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind    string  `json:"kind"`
		Src     string  `json:"src"`
		StartMS int64   `json:"start_ms"`
		EndMS   int64   `json:"end_ms"`
		Peak    float64 `json:"peak"`
		PeakMS  int64   `json:"peak_ts_ms"`
		Packets uint64  `json:"packets"`
	}{a.Kind.String(), a.Src.String(), int64(a.Start), int64(a.End), a.Peak, int64(a.PeakTS), a.Packets})
}

// WriteAlerts appends alerts to w as JSON lines, one object per line —
// the format `telescoped -alerts` and `quicsand replay -alerts` share.
func WriteAlerts(w io.Writer, alerts []Alert) error {
	for i := range alerts {
		b, err := json.Marshal(&alerts[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// alertLess is the canonical alert order: (Start, Src, Kind, End).
func alertLess(a, b *Alert) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.End < b.End
}

// SortAlerts orders alerts canonically.
func SortAlerts(list []Alert) {
	sort.Slice(list, func(i, j int) bool { return alertLess(&list[i], &list[j]) })
}

// MergeAlerts k-way merges per-shard canonically-sorted alert lists
// into one canonical stream using the loser tree.
func MergeAlerts(lists ...[]Alert) []Alert {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]Alert, 0, total)
	pos := make([]int, len(lists))
	exhausted := func(i int32) bool { return pos[i] >= len(lists[i]) }
	tree := losertree.New(len(lists), func(a, b int32) bool {
		ea, eb := exhausted(a), exhausted(b)
		if ea || eb {
			return !ea && eb || (ea == eb && a < b)
		}
		x, y := &lists[a][pos[a]], &lists[b][pos[b]]
		if alertLess(x, y) {
			return true
		}
		if alertLess(y, x) {
			return false
		}
		return a < b
	})
	for {
		w := tree.Winner()
		if w < 0 || exhausted(w) {
			break
		}
		out = append(out, lists[w][pos[w]])
		pos[w]++
		tree.Fix(w)
	}
	return out
}

// Fixed shape limits: the bucket ring and per-bucket CID slots are
// inline arrays so source state is one flat allocation that recycles
// through a freelist.
const (
	// MaxBuckets bounds Config.Buckets.
	MaxBuckets = 16
	// cidSlots is the per-bucket distinct-CID capacity; buckets
	// saturate at this many distinct CIDs. The CID ratio divides by
	// the uncapped QUIC packet count, so it can reach MinCIDRatio only
	// while a window holds at most Buckets·cidSlots/MinCIDRatio QUIC
	// packets (96 at the defaults): a flood above that never opens a
	// cid-ratio episode, however many fresh CIDs it carries.
	cidSlots = 8
)

type episode struct {
	active  bool
	start   telescope.Timestamp
	peak    float64
	peakTS  telescope.Timestamp
	packets uint64
}

// srcState is one source's window ring plus open episodes. ~1.3 KiB,
// freelist-recycled, no per-packet allocation.
type srcState struct {
	src    netmodel.Addr
	lastTS telescope.Timestamp
	// curUnit is the absolute bucket index (TS/bucketMS) of the
	// leading bucket; slot i holds unit u with u%Buckets == i.
	curUnit int64
	seen    bool

	counts   [MaxBuckets]uint32 // QUIC-candidate packets
	quic     [MaxBuckets]uint32 // dissected QUIC packets (coalesced incl.)
	initials [MaxBuckets]uint32
	cids     [MaxBuckets][cidSlots]uint64
	cidN     [MaxBuckets]uint8

	open [numKinds]episode
}

func (s *srcState) reset(src netmodel.Addr) {
	*s = srcState{src: src}
}

func (s *srcState) clearBucket(i int) {
	s.counts[i] = 0
	s.quic[i] = 0
	s.initials[i] = 0
	s.cidN[i] = 0
}

// Shard is one pipeline shard's detector bank. Single-writer like the
// other shard operators; the driver merges alert streams at drain
// time.
type Shard struct {
	cfg Config
	// derived, fixed after New
	windowMS  int64
	bucketMS  int64
	rateCount uint32

	sources map[netmodel.Addr]*srcState
	free    []*srcState
	closed  []Alert

	// Metrics accumulates this shard's counters (merged at reduce).
	Metrics telemetry.Detect
}

// NewShard builds a detector bank for one shard. cfg must be valid
// (call Config.Validate or use Default).
func NewShard(cfg Config) *Shard {
	return &Shard{
		cfg:       cfg,
		windowMS:  cfg.Window.Milliseconds(),
		bucketMS:  cfg.Window.Milliseconds() / int64(cfg.Buckets),
		rateCount: uint32(cfg.RateCount()),
		sources:   make(map[netmodel.Addr]*srcState),
	}
}

// Config returns the shard's configuration.
func (d *Shard) Config() Config { return d.cfg }

// Observe feeds one QUIC-candidate packet (with its optional
// dissection) into the source's window and updates episodes. Packets
// must arrive in non-decreasing time order, as everywhere else in the
// pipeline.
func (d *Shard) Observe(p *telescope.Packet, res *dissect.Result) {
	d.Metrics.Observed++
	st := d.sources[p.Src]
	if st == nil {
		st = d.newSource(p.Src)
	}

	// A >window silence ends every open episode at the last packet
	// before the gap and clears the ring: the window restarts empty.
	if st.seen && int64(p.TS-st.lastTS) > d.windowMS {
		d.closeAll(st, st.lastTS)
		st.reset(st.src)
	}

	// Advance the ring to p.TS's bucket, clearing skipped buckets.
	unit := int64(p.TS) / d.bucketMS
	if !st.seen {
		st.curUnit = unit
		st.seen = true
	} else if unit > st.curUnit {
		steps := unit - st.curUnit
		if steps >= int64(d.cfg.Buckets) {
			for i := 0; i < d.cfg.Buckets; i++ {
				st.clearBucket(i)
			}
		} else {
			for u := st.curUnit + 1; u <= unit; u++ {
				st.clearBucket(int(u % int64(d.cfg.Buckets)))
			}
		}
		st.curUnit = unit
	}
	st.lastTS = p.TS
	slot := int(unit % int64(d.cfg.Buckets))

	st.counts[slot]++
	if res != nil {
		for i := range res.Packets {
			pi := &res.Packets[i]
			st.quic[slot]++
			if pi.Type == wire.PacketTypeInitial {
				st.initials[slot]++
			}
			cid := pi.SCID
			if len(cid) == 0 {
				cid = pi.DCID
			}
			if len(cid) > 0 {
				addCID(st, slot, fnv64(cid))
			}
		}
	}

	// Window sums.
	var count, quic, initials, cids uint32
	for i := 0; i < d.cfg.Buckets; i++ {
		count += st.counts[i]
		quic += st.quic[i]
		initials += st.initials[i]
		cids += uint32(st.cidN[i])
	}

	windowSec := float64(d.windowMS) / 1000
	d.episodeStep(st, KindRate, p.TS,
		count >= d.rateCount, float64(count)/windowSec)
	if quic >= uint32(d.cfg.MinPackets) {
		frac := float64(initials) / float64(quic)
		ratio := float64(cids) / float64(quic)
		d.episodeStep(st, KindInitialFraction, p.TS,
			frac >= d.cfg.MinInitialFraction, frac)
		d.episodeStep(st, KindCIDRatio, p.TS,
			ratio >= d.cfg.MinCIDRatio, ratio)
	} else {
		// Below the evidence floor the fraction conditions are not
		// evaluated, but open episodes still ride the packet stream.
		d.episodeStep(st, KindInitialFraction, p.TS, false, 0)
		d.episodeStep(st, KindCIDRatio, p.TS, false, 0)
	}
}

// episodeStep advances one kind's episode state machine at packet
// time ts: open on a true condition, extend while open (episodes
// close on silence, not on the condition dropping).
func (d *Shard) episodeStep(st *srcState, k Kind, ts telescope.Timestamp, cond bool, value float64) {
	ep := &st.open[k]
	if ep.active {
		ep.packets++
		if value > ep.peak {
			ep.peak = value
			ep.peakTS = ts
		}
		return
	}
	if !cond {
		return
	}
	ep.active = true
	ep.start = ts
	ep.peak = value
	ep.peakTS = ts
	ep.packets = 1
	d.Metrics.AlertsOpened++
}

// closeAll closes every open episode of st at end time end.
func (d *Shard) closeAll(st *srcState, end telescope.Timestamp) {
	for k := Kind(0); k < numKinds; k++ {
		ep := &st.open[k]
		if !ep.active {
			continue
		}
		d.closed = append(d.closed, Alert{
			Kind: k, Src: st.src,
			Start: ep.start, End: end,
			Peak: ep.peak, PeakTS: ep.peakTS,
			Packets: ep.packets,
		})
		d.Metrics.AlertsClosed++
		ep.active = false
	}
}

func (d *Shard) newSource(src netmodel.Addr) *srcState {
	if d.cfg.MaxSources > 0 && len(d.sources) >= d.cfg.MaxSources {
		d.evictColdest()
	}
	var st *srcState
	if n := len(d.free); n > 0 {
		st = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		st = &srcState{}
	}
	st.reset(src)
	d.sources[src] = st
	d.Metrics.SourcesTracked++
	return st
}

// evictColdest drops the source with the oldest last packet (ties
// toward the smallest address), closing its open episodes first so no
// alert evidence is lost — only future window context.
func (d *Shard) evictColdest() {
	var victim *srcState
	for _, st := range d.sources {
		if victim == nil || st.lastTS < victim.lastTS ||
			(st.lastTS == victim.lastTS && st.src < victim.src) {
			victim = st
		}
	}
	if victim == nil {
		return
	}
	d.closeAll(victim, victim.lastTS)
	delete(d.sources, victim.src)
	d.free = append(d.free, victim)
	d.Metrics.SourcesEvicted++
}

// Sources returns the number of sources currently holding window
// state — the quantity MaxSources bounds.
func (d *Shard) Sources() int { return len(d.sources) }

// Flush closes every open episode at its source's last packet time —
// end of stream or final drain.
func (d *Shard) Flush() {
	for _, st := range d.sources {
		d.closeAll(st, st.lastTS)
	}
}

// Drain removes and returns the closed alerts accumulated so far, in
// canonical order. The per-shard stream is then merged across shards
// with MergeAlerts.
func (d *Shard) Drain() []Alert {
	if len(d.closed) == 0 {
		return nil
	}
	out := d.closed
	d.closed = nil
	SortAlerts(out)
	return out
}

// addCID records a CID hash in the bucket's distinct-slot set,
// saturating at cidSlots.
func addCID(st *srcState, slot int, h uint64) {
	n := st.cidN[slot]
	if n >= cidSlots {
		return
	}
	for i := uint8(0); i < n; i++ {
		if st.cids[slot][i] == h {
			return
		}
	}
	st.cids[slot][n] = h
	st.cidN[slot] = n + 1
}

// fnv64 is FNV-1a over b (inline, alloc-free).
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
