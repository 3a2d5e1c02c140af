package telemetry

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Text renders the snapshot as the human-readable counter block the
// `quicsand -fig stats` view and telescoped's shutdown flush print.
// Sections whose layer saw no traffic are omitted, so a replay run
// shows ingest instead of generate and vice versa.
func (s *Snapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry (%d workers)\n", s.Workers)
	if d := &s.Dissect; d.Datagrams > 0 {
		fmt.Fprintf(&b, "  dissect:  %d datagrams, %d QUIC packets, %d parse failures\n",
			d.Datagrams, d.Packets, d.ParseFailures)
		fmt.Fprintf(&b, "            %d decrypted Initials, %d ClientHellos, opener cache %d hit / %d miss / %d reset\n",
			d.Decrypted, d.ClientHellos, d.OpenerHits, d.OpenerMisses, d.OpenerResets)
	}
	if x := &s.Sessions; x.Emitted > 0 {
		fmt.Fprintf(&b, "  sessions: %d emitted (%d gap-split, %d swept, %d flushed), %d set spills\n",
			x.Emitted, x.TimeoutSplits, x.SweepEvicted, x.FlushEmitted, x.SetSpills)
		if x.BudgetEvicted > 0 {
			fmt.Fprintf(&b, "            %d budget-evicted\n", x.BudgetEvicted)
		}
	}
	if dt := &s.Detect; dt.Observed > 0 {
		fmt.Fprintf(&b, "  detect:   %d observed, alerts %d opened / %d closed, %d sources tracked",
			dt.Observed, dt.AlertsOpened, dt.AlertsClosed, dt.SourcesTracked)
		if dt.SourcesEvicted > 0 {
			fmt.Fprintf(&b, ", %d evicted", dt.SourcesEvicted)
		}
		b.WriteByte('\n')
	}
	if g := &s.Generate; g.EventsPlanned > 0 {
		fmt.Fprintf(&b, "  generate: %d/%d events emitted, %d packets, payload cache %d hit / %d miss",
			g.EventsEmitted, g.EventsPlanned, g.Packets, g.PayloadHits, g.PayloadMisses)
		if g.SlabGets > 0 {
			fmt.Fprintf(&b, ", slabs %d reused / %d", g.SlabReuses, g.SlabGets)
		}
		b.WriteByte('\n')
	}
	if in := &s.Ingest; in.Records > 0 {
		fmt.Fprintf(&b, "  ingest:   %d records (%s), %d decode drops", in.Records, in.Format, in.DecodeDrops)
		if in.Batches > 0 {
			fmt.Fprintf(&b, ", %d batches (mean fill %.1f, %d reused / %d allocated)",
				in.Batches, in.BatchFill.Mean(), in.BatchReuses, in.BatchAllocs)
		}
		if in.SpanBytes > 0 {
			// Lent spans alias a mapped capture; copied ones went from
			// the reader's window into a shard arena first.
			fmt.Fprintf(&b, ", span bytes %d lent / %d copied", in.SpanBytes-in.SpanCopyBytes, in.SpanCopyBytes)
		}
		b.WriteByte('\n')
		if in.CorruptRecords > 0 || in.ResyncScans > 0 || in.TransientRetries > 0 {
			fmt.Fprintf(&b, "  salvage:  %d corrupt records skipped over %d resyncs, %d bytes salvaged past, <= %d records lost, %d transient retries\n",
				in.CorruptRecords, in.ResyncScans, in.SalvagedBytes, in.SalvageMaxLost, in.TransientRetries)
		}
	}
	if e := &s.Engine; e.TapBatches > 0 {
		fmt.Fprintf(&b, "  tap:      %d batches (mean fill %.1f), bufs %d reused / %d allocated, queue high-water %d, %d sends found it full\n",
			e.TapBatches, e.TapBatchFill.Mean(), e.BufReuses, e.BufAllocs, e.QueueHighWater, e.TapStalls)
	}
	if t := &s.Trace; t.Written > 0 || t.Dropped > 0 {
		fmt.Fprintf(&b, "  trace:    %d records written, %d dropped\n", t.Written, t.Dropped)
	}
	return b.String()
}

// promCounter writes one fully-labelled counter sample with its HELP
// and TYPE preamble.
func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// promGaugeF writes one gauge sample.
func promGaugeF(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// promHist writes a Hist in Prometheus histogram exposition form:
// cumulative buckets with power-of-two upper bounds plus sum/count.
func promHist(w io.Writer, name, help string, h *Hist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	bound := uint64(1)
	for i := 0; i < HistBuckets-1; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
		bound <<= 1
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// promShards writes one counter family with a sample per shard.
func promShards(w io.Writer, name, help string, counts []uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for i, n := range counts {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, n)
	}
}

// promLabel writes a string metric as an info-style gauge: constant
// value 1, the string carried in a label named after the field.
func promLabel(w io.Writer, name, help, label, v string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{%s=%q} 1\n", name, help, name, name, label, v)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format under the given metric prefix (e.g. "quicsand"):
// the run-shape gauges, then one family per table metric, named
// prefix_section_field with the kind's suffix (_total for counters,
// _info for labels). Table order is fixed, so equal snapshots expose
// byte-equal documents.
func (s *Snapshot) WritePrometheus(w io.Writer, prefix string) {
	promGaugeF(w, prefix+"_workers", "Shard count of the run.", float64(s.Workers))
	if len(s.ShardPackets) > 0 {
		promShards(w, prefix+"_shard_packets_total", "Packets processed per shard.", s.ShardPackets)
		promGaugeF(w, prefix+"_shard_skew", "Max/mean shard packet ratio (1 = balanced).", s.Skew())
	}
	v := reflect.ValueOf(s).Elem()
	for _, m := range table {
		name, f := prefix+"_"+m.section+"_"+m.name, v.FieldByIndex(m.index)
		switch m.kind {
		case kindSum:
			promCounter(w, name+"_total", m.help, f.Uint())
		case kindMax:
			promGaugeF(w, name, m.help, float64(f.Uint()))
		case kindHist:
			promHist(w, name, m.help, f.Addr().Interface().(*Hist))
		case kindLabel:
			promLabel(w, name+"_info", m.help, m.name, f.String())
		}
	}
}
