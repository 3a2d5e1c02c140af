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
// A silent source's episodes close, at its last packet, as soon as any
// packet reaches its shard more than one window later, and its window
// state goes with them: a shard holds state only for the sources heard
// within the last window, so a finished flood's alert drains at the
// next checkpoint rather than at shutdown.
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
// canonically and merged by a stable sort. Which drain an alert
// lands in depends on the shard's other traffic; its content does not.
// Only a source budget (Shard.MaxSources) breaks this invariance
// (eviction depends on shard residency), the trade the sessionizer's
// MaxActive makes with the same budget.
package detect

import (
	"encoding/json"
	"io"
	"slices"
	"sort"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/srcindex"
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

// MergeAlerts merges per-shard canonically-sorted alert lists into one
// canonical stream: the lists concatenated in shard order and stably
// sorted. Alerts from different shards have different sources and never
// tie, and the stable sort keeps each shard's order for equal keys.
func MergeAlerts(lists ...[]Alert) []Alert {
	out := slices.Concat(lists...)
	slices.SortStableFunc(out, func(a, b Alert) int {
		switch {
		case alertLess(&a, &b):
			return -1
		case alertLess(&b, &a):
			return 1
		}
		return 0
	})
	return out
}

// Buckets is the ring's resolution: the window is Buckets fixed-width
// buckets (10 s each at the 60 s default window).
const Buckets = 6

type episode struct {
	active  bool
	start   telescope.Timestamp
	peak    float64
	peakTS  telescope.Timestamp
	packets uint64
}

// srcState is one source's window ring plus open episodes: 976 B,
// held inline in the shard's index, which keeps the source's address
// and last packet time beside it. Observe allocates nothing per packet.
type srcState struct {
	// curUnit is the absolute bucket index (TS/bucketMS) of the
	// leading bucket; slot i holds unit u with u%Buckets == i.
	curUnit int64

	counts   [Buckets]uint32 // QUIC-candidate packets
	quic     [Buckets]uint32 // dissected QUIC packets (coalesced incl.)
	initials [Buckets]uint32
	cids     [Buckets]cidSketch // the CIDs each bucket saw (cidsketch.go)
	cidWin   cidWindow          // the summary of their union, the window's CIDs

	open [numKinds]episode
}

// clearBucket empties slot i and reports whether its sketch held CIDs,
// which the window's union must then forget.
func (s *srcState) clearBucket(i int64) bool {
	s.counts[i] = 0
	s.initials[i] = 0
	if s.quic[i] == 0 {
		return false // no QUIC packet, no CID
	}
	s.quic[i] = 0
	s.cids[i] = cidSketch{}
	return true
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

	sources srcindex.Index[srcState] // heard within the last window
	closed  []Alert

	// MaxSources, when positive, bounds the sources holding window
	// state; the pipeline sets it to the sessionizers' budget. Past it
	// the coldest source (smallest last packet time, ties toward the
	// smallest address, as in the sessionizer) is dropped with its open
	// episodes closed at its last packet (Metrics.SourcesEvicted). While
	// Window is no longer than the session timeout the bank's sources
	// are a subset of the QUIC sessionizer's, so it never evicts unless
	// the sessionizer does.
	MaxSources int

	// Metrics accumulates this shard's counters (merged at reduce).
	Metrics telemetry.Detect
}

// NewShard builds a detector bank for one shard. cfg must be valid
// (call Config.Validate or use Default).
func NewShard(cfg Config) *Shard {
	return &Shard{
		cfg:       cfg,
		windowMS:  cfg.Window.Milliseconds(),
		bucketMS:  cfg.Window.Milliseconds() / Buckets,
		rateCount: uint32(cfg.RateCount()),
		sources:   srcindex.New[srcState](),
	}
}

// Observe feeds one QUIC-candidate packet (with its optional
// dissection) into the source's window and updates episodes. Packets
// must arrive in non-decreasing time order, as everywhere else in the
// pipeline.
func (d *Shard) Observe(p *telescope.Packet, res *dissect.Result) {
	d.Metrics.Observed++

	// A >window silence ends every open episode at the last packet
	// before the gap, and the source's next packet starts an empty
	// window. The silent sources are the list's tail: expire them now,
	// so their alerts drain without waiting for them to speak again.
	for t := d.sources.Tail(); t >= 0 && int64(p.TS-d.sources.End(t)) > d.windowMS; t = d.sources.Tail() {
		d.drop(t)
	}

	// Advance the ring to p.TS's bucket, clearing skipped buckets.
	unit := int64(p.TS) / d.bucketMS
	pos := d.sources.Lookup(p.Src)
	if pos < 0 {
		pos = d.sources.Put(p.Src, p.TS, srcState{curUnit: unit, cidWin: emptyCIDWindow})
		d.Metrics.SourcesTracked++
	} else {
		d.sources.Touch(pos, p.TS)
	}
	st := d.sources.At(pos)
	if unit > st.curUnit {
		dropped := false
		for u := max(st.curUnit+1, unit-Buckets+1); u <= unit; u++ {
			dropped = st.clearBucket(u%Buckets) || dropped
		}
		if dropped {
			st.cidWin.rebuild(&st.cids)
		}
		st.curUnit = unit
	}
	slot := unit % Buckets

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
				st.cidWin.add(&st.cids, slot, cidHash(cid))
			}
		}
	}

	// Window sums.
	var count, quic, initials uint32
	for i := 0; i < Buckets; i++ {
		count += st.counts[i]
		quic += st.quic[i]
		initials += st.initials[i]
	}

	windowSec := float64(d.windowMS) / 1000
	d.episodeStep(st, KindRate, p.TS,
		count >= d.rateCount, float64(count)/windowSec)
	if quic >= uint32(d.cfg.MinPackets) {
		frac := float64(initials) / float64(quic)
		// The estimate may overshoot the packets that carried it; no
		// window holds more distinct CIDs than QUIC packets.
		ratio := min(st.cidWin.estimate(), float64(quic)) / float64(quic)
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

	if d.MaxSources > 0 && d.sources.Len() > d.MaxSources {
		d.Metrics.SourcesEvicted++
		d.drop(d.sources.Coldest())
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

// closeAll closes every open episode of the source at pos at its last
// packet time, so no alert evidence is lost.
func (d *Shard) closeAll(pos int32) {
	st, src, end := d.sources.At(pos), d.sources.Src(pos), d.sources.End(pos)
	for k := Kind(0); k < numKinds; k++ {
		ep := &st.open[k]
		if !ep.active {
			continue
		}
		d.closed = append(d.closed, Alert{
			Kind: k, Src: src,
			Start: ep.start, End: end,
			Peak: ep.peak, PeakTS: ep.peakTS,
			Packets: ep.packets,
		})
		d.Metrics.AlertsClosed++
		ep.active = false
	}
}

// drop closes the open episodes of the source at pos and forgets its
// window state.
func (d *Shard) drop(pos int32) {
	d.closeAll(pos)
	d.sources.Remove(pos)
}

// Sources returns the number of sources currently holding window
// state: those heard within the last window, at most MaxSources.
func (d *Shard) Sources() int { return d.sources.Len() }

// Flush closes every open episode at its source's last packet time —
// end of stream or final drain.
func (d *Shard) Flush() {
	for pos := range int32(d.sources.Len()) {
		d.closeAll(pos)
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
