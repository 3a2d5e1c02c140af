package telescope

import (
	"quicsand/internal/netmodel"
)

// Sink consumes captured packets. Analysis stages compose as sinks so
// the month-long stream is processed in one pass with O(state) memory.
type Sink interface {
	Capture(p *Packet)
}

// Telescope models the darknet: it counts the packets addressed into
// its prefix.
type Telescope struct {
	Prefix netmodel.Prefix

	// Counters for the §5.1 overview.
	Total     uint64
	UDP443    uint64
	TCPICMP   uint64
	FirstSeen Timestamp
	LastSeen  Timestamp
}

// New creates a telescope for the standard /9 prefix.
func New() *Telescope {
	return &Telescope{Prefix: netmodel.TelescopePrefix}
}

// Offer counts one packet if it falls inside the telescope and reports
// whether it did. Packets outside the prefix are dropped, mirroring the
// fact that a darknet never sees them.
func (t *Telescope) Offer(p *Packet) bool {
	if !t.Prefix.Contains(p.Dst) {
		return false
	}
	t.Total++
	if t.FirstSeen == 0 || p.TS < t.FirstSeen {
		t.FirstSeen = p.TS
	}
	if p.TS > t.LastSeen {
		t.LastSeen = p.TS
	}
	switch {
	case p.Proto == ProtoUDP && p.IsQUICCandidate():
		t.UDP443++
	case p.Proto == ProtoTCP || p.Proto == ProtoICMP:
		t.TCPICMP++
	}
	return true
}

// Merge folds another telescope's counters into t: sums for the
// volume counters, min/max for the observation window. Counter merging
// is commutative, so shard order never shows in the result.
func (t *Telescope) Merge(o *Telescope) {
	t.Total += o.Total
	t.UDP443 += o.UDP443
	t.TCPICMP += o.TCPICMP
	if o.FirstSeen != 0 && (t.FirstSeen == 0 || o.FirstSeen < t.FirstSeen) {
		t.FirstSeen = o.FirstSeen
	}
	if o.LastSeen > t.LastSeen {
		t.LastSeen = o.LastSeen
	}
}

// HourlyCounter bins packets per hour into labelled series — the
// Figure 2/3 views. Thinned records contribute their Weight.
type HourlyCounter struct {
	// Series maps a label to per-hour packet counts.
	Series map[string][]uint64
	// Classify labels each packet; empty string drops it.
	Classify func(p *Packet) string

	// recent resolves the handful of labels a classifier returns to
	// their series without hashing the label per packet. It only ever
	// mirrors entries of this counter's own Series: decode starts with
	// it empty and Merge drops it, so it never carries a slice belonging
	// to another counter.
	recent []labelSeries
}

type labelSeries struct {
	label  string
	series []uint64
}

// maxRecentLabels bounds the linear label scan; a classifier with more
// labels than this pays the map lookup for the overflow.
const maxRecentLabels = 8

// NewHourlyCounter builds a counter with the given classifier.
func NewHourlyCounter(classify func(p *Packet) string) *HourlyCounter {
	return &HourlyCounter{Series: make(map[string][]uint64), Classify: classify}
}

// Capture implements Sink.
func (h *HourlyCounter) Capture(p *Packet) {
	label := h.Classify(p)
	if label == "" {
		return
	}
	hour := p.TS.Hour()
	if hour < 0 || hour >= HoursInMeasurement {
		return
	}
	h.seriesOf(label)[hour] += p.EffectiveWeight()
}

// seriesOf returns the label's series, creating it on first use.
func (h *HourlyCounter) seriesOf(label string) []uint64 {
	for i := range h.recent {
		if h.recent[i].label == label {
			return h.recent[i].series
		}
	}
	s := h.Series[label]
	if s == nil {
		s = make([]uint64, HoursInMeasurement)
		h.Series[label] = s
	}
	if len(h.recent) < maxRecentLabels {
		h.recent = append(h.recent, labelSeries{label, s})
	}
	return s
}

// Merge adds another counter's series into h, element-wise. Addition
// commutes, so merging shard counters in any order gives the same
// histogram as sequential counting.
func (h *HourlyCounter) Merge(o *HourlyCounter) {
	h.recent = h.recent[:0]
	for label, src := range o.Series {
		dst := h.Series[label]
		if dst == nil {
			dst = make([]uint64, HoursInMeasurement)
			h.Series[label] = dst
		}
		for i, v := range src {
			dst[i] += v
		}
	}
}

// TotalOf sums a series.
func (h *HourlyCounter) TotalOf(label string) uint64 {
	var total uint64
	for _, v := range h.Series[label] {
		total += v
	}
	return total
}
