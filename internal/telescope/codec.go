package telescope

import (
	"sort"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
)

// Streaming-checkpoint support: a ckpt codec for the counter state, the
// only frozen form a checkpoint keeps of it. Classifiers are runtime
// wiring and are never serialized; the decoder's caller attaches one.

// EncodeTo writes the telescope counters.
func (t *Telescope) EncodeTo(w *ckpt.Writer) {
	w.U64(uint64(t.Prefix.Base))
	w.U64(uint64(t.Prefix.Bits))
	w.U64(t.Total)
	w.U64(t.UDP443)
	w.U64(t.TCPICMP)
	w.I64(int64(t.FirstSeen))
	w.I64(int64(t.LastSeen))
}

// DecodeTelescope reads a telescope encoded by EncodeTo. Returns nil on
// malformed input (reader error set).
func DecodeTelescope(r *ckpt.Reader) *Telescope {
	t := &Telescope{}
	t.Prefix.Base = netmodel.Addr(r.U64())
	t.Prefix.Bits = r.Int(32)
	t.Total = r.U64()
	t.UDP443 = r.U64()
	t.TCPICMP = r.U64()
	t.FirstSeen = Timestamp(r.I64())
	t.LastSeen = Timestamp(r.I64())
	if r.Err() != nil {
		return nil
	}
	return t
}

// EncodeTo writes the series with labels sorted. Every series is
// exactly HoursInMeasurement long by construction.
func (h *HourlyCounter) EncodeTo(w *ckpt.Writer) {
	labels := make([]string, 0, len(h.Series))
	for label := range h.Series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	w.U64(uint64(len(labels)))
	for _, label := range labels {
		w.String(label)
		for _, v := range h.Series[label] {
			w.U64(v)
		}
	}
}

// DecodeHourlyCounter reads a counter encoded by EncodeTo; the
// classifier must be re-attached by the caller. Returns nil on
// malformed input (reader error set).
func DecodeHourlyCounter(r *ckpt.Reader, classify func(p *Packet) string) *HourlyCounter {
	h := NewHourlyCounter(classify)
	n := r.Int(1 << 16)
	for i := 0; i < n && r.Err() == nil; i++ {
		label := r.String(1 << 10)
		s := make([]uint64, HoursInMeasurement)
		for j := range s {
			s[j] = r.U64()
		}
		if r.Err() != nil {
			return nil
		}
		if _, dup := h.Series[label]; dup {
			r.Errorf("duplicate hourly series %q", label)
			return nil
		}
		h.Series[label] = s
	}
	if r.Err() != nil {
		return nil
	}
	return h
}
