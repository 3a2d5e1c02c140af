// Package telemetry is the pipeline's zero-allocation metrics layer.
// Counters and fixed-bucket histograms live in plain per-shard structs
// embedded in the hot-path operators (dissector, sessionizer, slab
// pool, scatter, engine worker) — value fields, single-writer, no
// atomics, no allocation — and are merged at reduce time exactly like
// the sharded analysis state: commutative uint64 additions, so any
// worker count folds to the same totals where the underlying quantity
// is a property of the packet stream.
//
// The counter structs below are the only declaration of a metric. Each
// field carries its json name, its help text, its determinism class and
// (where it is not a plain sum) its merge rule as struct tags; table.go
// walks them once at init into the metric table, and Merge, Stream,
// WritePrometheus and the table-driven tests are loops over that table.
// Adding a metric is one field line. Only reduce-time code reflects;
// operators bump the plain fields directly.
//
// Two determinism classes coexist in one Snapshot (DESIGN.md §13), as
// the class tag of each field:
//
//   - class:"stream" metrics (packets dissected, parse failures,
//     sessions emitted, payload-cache hits, records replayed, alerts
//     opened) are equal for every worker count and for live vs replayed
//     runs — the Stream projection keeps exactly these, and the
//     telemetry determinism tests assert their invariance;
//   - class:"runtime" metrics (opener-cache hits, slab/batch recycling,
//     tap batch fill, queue high-water) describe how a particular
//     execution ran and legitimately vary with scheduling. A metric
//     that the determinism tests catch varying is retagged runtime,
//     with the reason in its doc comment.
//
// The live exposition side (Live, Server, Heartbeat) uses one
// cache-line-padded atomic bank per shard instead: telescoped's socket
// pipeline is open-ended, so its counters must be readable mid-run
// from the metrics endpoint and the heartbeat without racing the
// workers.
package telemetry

import (
	"math/bits"
	"reflect"
)

// HistBuckets is the fixed bucket count of Hist: powers of two from
// <=1 up to >=2^14, plus the zero bucket.
const HistBuckets = 16

// Hist is a fixed power-of-two-bucket histogram for small cardinal
// quantities (batch fill, queue depth). Observing is one shift-class
// instruction plus two increments — no allocation, no atomics; merging
// is element-wise addition.
type Hist struct {
	// Buckets[i] counts observations v with bits.Len64(v) == i, i.e.
	// bucket 0 holds v=0 and bucket i>0 holds v in [2^(i-1), 2^i).
	// The last bucket absorbs everything larger.
	Buckets [HistBuckets]uint64 `json:"buckets"`
	// Count and Sum track the observation count and total.
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Dissect counts the QUIC dissector's work. One struct lives in each
// shard's Dissector; all fields are stream-derived except the opener
// cache triple, which depends on how traffic interleaved on the shard.
type Dissect struct {
	// Datagrams counts UDP payloads offered to Dissect.
	Datagrams uint64 `json:"datagrams" help:"UDP payloads offered to the dissector." class:"stream"`
	// Packets counts structurally valid QUIC packets (including
	// coalesced ones) inside accepted datagrams.
	Packets uint64 `json:"packets" help:"Structurally valid QUIC packets (incl. coalesced)." class:"stream"`
	// ParseFailures counts datagrams rejected as not-QUIC — the deep
	// validation filter the paper's §4.1 false-positive ablation is
	// about.
	ParseFailures uint64 `json:"parse_failures" help:"Datagrams rejected as not-QUIC." class:"stream"`
	// Decrypted counts Initials whose protection was removable with
	// the on-wire DCID (genuine client Initials).
	Decrypted uint64 `json:"decrypted" help:"Initials decrypted with on-wire DCID keys." class:"stream"`
	// FrameErrors counts decrypted Initials whose frames do not parse:
	// the datagram counts as QUIC, the Initial carries no frames.
	FrameErrors uint64 `json:"frame_errors,omitempty" help:"Decrypted Initials whose frames do not parse." class:"stream"`
	// ClientHellos counts decrypted Initials carrying a parseable
	// ClientHello.
	ClientHellos uint64 `json:"client_hellos" help:"Decrypted Initials carrying a ClientHello." class:"stream"`
	// Opener cache behavior (runtime: shard interleaving dependent).
	// Each hit or miss is one Initial trial open, made only for
	// request-direction or direction-unknown datagrams, so hits + misses
	// equal Decrypted unless something failed to open. Their help text
	// is pinned for scrapers by the exposition golden in testdata/.
	OpenerHits   uint64 `json:"opener_hits" help:"Initial-opener cache hits." class:"runtime"`
	OpenerMisses uint64 `json:"opener_misses" help:"Initial-opener cache misses (HKDF+AES derivations)." class:"runtime"`
	OpenerResets uint64 `json:"opener_resets" help:"Wholesale opener-cache resets." class:"runtime"`
}

// Merge folds o into d field by field, as the metric table directs.
func (d *Dissect) Merge(o *Dissect) { mergeSection(d, o) }

// Sessions counts sessionizer activity. Emitted and SetSpills are
// stream-derived; the eviction-cause split (gap-split vs lazy sweep vs
// end-of-stream flush) depends on sweep cadence, which varies with the
// shard count.
type Sessions struct {
	// Emitted counts completed sessions.
	Emitted uint64 `json:"emitted" help:"Completed sessions." class:"stream"`
	// TimeoutSplits counts sessions closed inline by a same-source gap
	// exceeding the timeout.
	TimeoutSplits uint64 `json:"timeout_splits" help:"Sessions closed inline by a timeout gap." class:"runtime"`
	// SweepEvicted counts sessions closed by the lazy expiry sweep.
	SweepEvicted uint64 `json:"sweep_evicted" help:"Sessions closed by the lazy expiry sweep." class:"runtime"`
	// FlushEmitted counts sessions force-closed at end of stream.
	FlushEmitted uint64 `json:"flush_emitted" help:"Sessions force-closed at end of stream." class:"runtime"`
	// BudgetEvicted counts sessions force-closed because the active set
	// exceeded the sessionizer's hard memory budget (daemon mode); the
	// coldest session is evicted first. Zero when no budget is set.
	// Runtime: which sessions a budget splits depends on per-shard
	// residency.
	BudgetEvicted uint64 `json:"budget_evicted,omitempty" help:"Sessions force-closed by the memory budget." class:"runtime"`
	// SetSpills counts inline anatomy sets (peer addrs/ports, SCIDs,
	// versions) that outgrew their inline arms and spilled to a map —
	// the compact-session optimization's miss counter.
	SetSpills uint64 `json:"set_spills" help:"Inline anatomy sets spilled to maps." class:"stream"`
}

// Merge folds o into s field by field, as the metric table directs.
func (s *Sessions) Merge(o *Sessions) { mergeSection(s, o) }

// Detect counts the sliding-window detector's work (internal/detect).
// Observed/alert counters are stream-derived for a fixed window config
// (per-source windows see the same packets on any shard layout);
// SourcesEvicted is only nonzero under a source budget, which makes
// results depend on per-shard residency and is therefore runtime-class.
type Detect struct {
	// Observed counts QUIC-candidate packets offered to the detectors.
	Observed uint64 `json:"observed" help:"QUIC-candidate packets offered to the detectors." class:"stream"`
	// AlertsOpened / AlertsClosed count alert episodes started and
	// finished (closed ≤ opened until the final flush).
	AlertsOpened uint64 `json:"alerts_opened" help:"Alert episodes opened." class:"stream"`
	AlertsClosed uint64 `json:"alerts_closed" help:"Alert episodes closed." class:"stream"`
	// SourcesTracked counts distinct sources ever given window state.
	SourcesTracked uint64 `json:"sources_tracked" help:"Distinct sources given window state." class:"stream"`
	// SourcesEvicted counts cold source states dropped to stay under
	// the detector's source budget (runtime: shard-residency dependent).
	SourcesEvicted uint64 `json:"sources_evicted,omitempty" help:"Cold source states dropped by the source budget." class:"runtime"`
}

// Merge folds o into d field by field, as the metric table directs.
func (d *Detect) Merge(o *Detect) { mergeSection(d, o) }

// Generate counts the background-radiation generator's work: one
// struct per shard merger. Event and packet counts plus the per-event
// payload cache are stream-derived; slab recycling is runtime.
type Generate struct {
	// EventsPlanned counts scheduled sources on the shard.
	EventsPlanned uint64 `json:"events_planned" help:"Scheduled generator sources." class:"stream"`
	// EventsEmitted counts sources actually activated by the merger
	// (equal to EventsPlanned once the stream drains).
	EventsEmitted uint64 `json:"events_emitted" help:"Generator sources activated." class:"stream"`
	// Packets counts generated packets.
	Packets uint64 `json:"packets" help:"Generated packets." class:"stream"`
	// Payload-interning cache (per event, so stream-derived).
	PayloadHits   uint64 `json:"payload_hits" help:"Payload-cache hits." class:"stream"`
	PayloadMisses uint64 `json:"payload_misses" help:"Payload-cache misses (datagrams built)." class:"stream"`
	// Packet-slab freelist behavior (runtime: reuse depends on shard
	// activation order).
	SlabGets   uint64 `json:"slab_gets" help:"Packet-slab requests." class:"runtime"`
	SlabReuses uint64 `json:"slab_reuses" help:"Packet-slab freelist hits." class:"runtime"`
}

// Merge folds o into g field by field, as the metric table directs.
func (g *Generate) Merge(o *Generate) { mergeSection(g, o) }

// Ingest counts the replay path: records read from a stored capture
// and how they were batched toward the shards. Records, DecodeDrops
// and Format are stream-derived; batching is runtime.
type Ingest struct {
	// Format is the source container ("qsnd", "pcap"); empty for
	// generated (non-replay) runs.
	Format string `json:"format,omitempty" help:"Replay source container format." class:"stream"`
	// Records counts packets read from the source.
	Records uint64 `json:"records" help:"Records read from the replay source." class:"stream"`
	// DecodeDrops counts records the decapsulation could not represent
	// (pcap: non-IPv4, fragments, unsupported transports).
	DecodeDrops uint64 `json:"decode_drops" help:"Records dropped during decapsulation." class:"stream"`
	// Salvage-mode degradation ledger (DESIGN.md §14): all zero on
	// undamaged inputs, stream-derived given a fixed fault pattern —
	// except TransientRetries, which depends on I/O timing and is
	// runtime-class.
	CorruptRecords   uint64 `json:"corrupt_records,omitempty" help:"Corrupt records skipped by salvage mode." class:"stream"`
	ResyncScans      uint64 `json:"resync_scans,omitempty" help:"Forward scans for a plausible record boundary." class:"stream"`
	SalvagedBytes    uint64 `json:"salvaged_bytes,omitempty" help:"Damaged bytes skipped past by salvage resyncs." class:"stream"`
	SalvageMaxLost   uint64 `json:"salvage_max_lost,omitempty" help:"Worst-case records destroyed inside skipped spans." class:"stream"`
	TransientRetries uint64 `json:"transient_retries,omitempty" help:"Source reads retried after transient errors." class:"runtime"`
	// Scatter batching (runtime).
	Batches     uint64 `json:"batches" help:"Scatter batches dealt to shards." class:"runtime"`
	BatchFill   Hist   `json:"batch_fill" help:"Scatter batch fill (packets per batch)." class:"runtime"`
	BatchReuses uint64 `json:"batch_reuses" help:"Scatter batches recycled from shards." class:"runtime"`
	BatchAllocs uint64 `json:"batch_allocs" help:"Scatter batches freshly allocated." class:"runtime"`
	// Decode-after-scatter provenance (runtime: depends on the source's
	// capabilities). SpanBytes counts raw record-span bytes handed to
	// shards.
	SpanBytes uint64 `json:"span_bytes,omitempty" help:"Raw record-span bytes handed to shards undecoded." class:"runtime"`
	// SpanCopyBytes is the part of SpanBytes the reader copied from its
	// window into a shard arena before handing it over: all of it for a
	// streamed capture, 0 for a mapped one, whose spans are lent as
	// aliases of the file (DESIGN.md §16).
	SpanCopyBytes uint64 `json:"span_copy_bytes" help:"Record-span bytes copied from the reader window into shard arenas (0: spans alias a mapped capture)." class:"runtime"`
}

// Engine counts the sharded engine's tap-merge machinery: batch sends,
// buffer recycling, and the deepest tap queue observed. All runtime.
type Engine struct {
	// TapBatches counts batches sent to the merge goroutine.
	TapBatches uint64 `json:"tap_batches" help:"Tap batches sent to the merge." class:"runtime"`
	// TapBatchFill is the batch-size distribution (full batches land
	// in one bucket; the tail batch per shard is partial).
	TapBatchFill Hist `json:"tap_batch_fill" help:"Tap batch fill (items per batch)." class:"runtime"`
	// Buffer recycling between merge and workers.
	BufReuses uint64 `json:"buf_reuses" help:"Tap buffers recycled from the merge." class:"runtime"`
	BufAllocs uint64 `json:"buf_allocs" help:"Tap buffers freshly allocated." class:"runtime"`
	// QueueHighWater is the deepest per-shard tap queue seen (in
	// batches) — how far a fast shard ran ahead of the merge.
	QueueHighWater uint64 `json:"queue_high_water" help:"Deepest per-shard tap queue seen (batches)." class:"runtime" merge:"max"`
	// TapStalls counts tap batch sends that found the shard's queue full,
	// so the shard waited for the merge: how often the window paced it.
	TapStalls uint64 `json:"tap_stalls,omitempty" help:"Tap batch sends that found the shard's queue full." class:"runtime"`
}

// Merge folds o into e field by field, as the metric table directs.
func (e *Engine) Merge(o *Engine) { mergeSection(e, o) }

// Trace counts the checkpoint writer: records written and records
// discarded after a sticky write error. Stream-derived.
type Trace struct {
	Written uint64 `json:"written" help:"Checkpoint records written." class:"stream"`
	Dropped uint64 `json:"dropped" help:"Checkpoint records dropped after a write error." class:"stream"`
}

// Snapshot is the merged end-of-run view of every instrumented layer —
// the telemetry twin of Analysis. Runs assemble it at reduce time from
// the per-shard structs; telescoped assembles it at shutdown from its
// dissectors and live bank.
type Snapshot struct {
	// Workers is the shard count the run used.
	Workers int `json:"workers"`
	// ShardPackets is the per-shard packet count — the balance view
	// manifests attribute skew with (runtime: the partition hash is
	// deterministic, but the slice length tracks the worker count).
	ShardPackets []uint64 `json:"shard_packets,omitempty"`

	Dissect  Dissect  `json:"dissect"`
	Sessions Sessions `json:"sessions"`
	Generate Generate `json:"generate"`
	Ingest   Ingest   `json:"ingest"`
	Engine   Engine   `json:"engine"`
	Trace    Trace    `json:"trace"`
	Detect   Detect   `json:"detect"`
}

// Stream is the worker-invariant projection of the snapshot: a copy
// with every runtime-class metric, Workers and ShardPackets zeroed.
// What remains is a pure property of the packet stream, so two runs
// over the same stream — any worker count, live or replayed — produce
// equal Streams. The telemetry determinism tests compare exactly this.
func (s *Snapshot) Stream() Snapshot {
	st := *s
	st.Workers, st.ShardPackets = 0, nil
	v := reflect.ValueOf(&st).Elem()
	for _, m := range table {
		if m.runtime {
			v.FieldByIndex(m.index).SetZero()
		}
	}
	return st
}

// Skew returns the shard balance ratio max/mean of ShardPackets
// (1.0 = perfectly balanced; 0 when empty).
func (s *Snapshot) Skew() float64 {
	return skew(s.ShardPackets)
}

func skew(counts []uint64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total, max uint64
	for _, n := range counts {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}
