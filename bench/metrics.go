package main

// The metric tables: every name BENCHMARK.json lists, its unit, and the
// workloads it applies to. BENCHMARK.json carries direction and bound;
// TestSpecMatchesTables keeps the two in step.

import "slices"

// Workload names, in run order.
const (
	simPaper   = "sim-paper"
	replayQSND = "replay-paper-qsnd"
	replayPcap = "replay-flood-pcap"
	streamQSND = "stream-flood-qsnd"
)

// metricDef is one reported metric. on lists the workloads it applies
// to; nil means all four. A per-layer metric that does not apply to a
// workload is omitted from the text report and reads 0 in the driver's
// JSON line (the contract wants every per-layer name on every run).
type metricDef struct {
	name string
	unit string
	on   []string
}

func (m metricDef) appliesTo(workload string) bool {
	return m.on == nil || slices.Contains(m.on, workload)
}

// endToEnd are the untraced metrics, each the median over the timed
// repetitions of one invocation.
var endToEnd = []metricDef{
	{name: "pkts_per_s", unit: "1/s"},
	{name: "cpu_ns_per_pkt", unit: "ns"},
	{name: "allocs_per_kpkt", unit: "count"},
	{name: "heap_retained_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

var (
	onSim     = []string{simPaper}
	onQSND    = []string{replayQSND, streamQSND}
	onPcap    = []string{replayPcap}
	onScatter = []string{replayQSND, replayPcap}
	onStream  = []string{streamQSND}
)

// perLayer are the traced-pass metrics, grouped by the module whose
// public functions the bracket encloses.
var perLayer = []metricDef{
	{name: "plan.ms", unit: "ms"},
	{name: "plan.netmodel_ms", unit: "ms"},
	{name: "plan.activescan_ms", unit: "ms"},
	{name: "plan.schedule_ms", unit: "ms"},

	{name: "ibr.generate_ns_per_pkt", unit: "ns", on: onSim},
	{name: "ibr.generate_allocs_per_kpkt", unit: "count", on: onSim},
	{name: "ibr.payload_cache_hit_ratio", unit: "ratio", on: onSim},
	{name: "ibr.slab_recycle_ratio", unit: "ratio", on: onSim},

	{name: "capture.qsnd_mmap_ns_per_pkt", unit: "ns", on: onQSND},
	{name: "capture.qsnd_stream_ns_per_pkt", unit: "ns", on: onQSND},
	{name: "capture.qsnd_mb_per_s", unit: "MB/s", on: onQSND},
	{name: "capture.pcap_ns_per_pkt", unit: "ns", on: onPcap},
	{name: "capture.pcap_mb_per_s", unit: "MB/s", on: onPcap},
	{name: "capture.scatter_ns_per_pkt", unit: "ns", on: onScatter},
	{name: "capture.decode_drops", unit: "count", on: onScatter},
	{name: "capture.span_bytes", unit: "B", on: onScatter},

	{name: "telescope.offer_ns_per_pkt", unit: "ns"},
	{name: "telescope.hourly_ns_per_pkt", unit: "ns"},
	{name: "telescope.research_ns_per_pkt", unit: "ns"},
	{name: "telescope.research_share", unit: "ratio"},

	{name: "dissect.ns_per_pkt", unit: "ns"},
	{name: "dissect.allocs_per_kpkt", unit: "count"},
	{name: "dissect.parse_fail_share", unit: "ratio"},
	{name: "dissect.decrypted_share", unit: "ratio"},
	{name: "dissect.opener_cache_hit_ratio", unit: "ratio"},

	{name: "sessions.observe_ns_per_pkt", unit: "ns"},
	{name: "sessions.active_peak", unit: "count"},
	{name: "sessions.emitted", unit: "count"},
	{name: "sessions.timeout_splits", unit: "count"},
	{name: "sessions.budget_evicted", unit: "count"},
	{name: "sessions.flush_ms", unit: "ms"},

	{name: "dosdetect.offer_ns_per_session", unit: "ns"},
	{name: "dosdetect.quic_attacks", unit: "count"},
	{name: "dosdetect.common_attacks", unit: "count"},
	{name: "correlate.ms", unit: "ms"},

	{name: "detect.observe_ns_per_pkt", unit: "ns", on: onStream},
	{name: "detect.alerts", unit: "count", on: onStream},
	{name: "detect.sources_peak", unit: "count", on: onStream},
	{name: "detect.evictions", unit: "count", on: onStream},

	{name: "stream.offer_ns_per_pkt", unit: "ns", on: onStream},
	{name: "stream.offer_allocs_per_kpkt", unit: "count", on: onStream},
	{name: "stream.batch_ref_pkts_per_s", unit: "1/s", on: onStream},
	{name: "stream.tax_share", unit: "ratio", on: onStream},

	{name: "ckpt.tick_ms_p50", unit: "ms", on: onStream},
	{name: "ckpt.tick_ms_p95", unit: "ms", on: onStream},
	{name: "ckpt.pause_ms_p50", unit: "ms", on: onStream},
	{name: "ckpt.pause_ms_p95", unit: "ms", on: onStream},
	{name: "ckpt.encode_ms_p50", unit: "ms", on: onStream},
	{name: "ckpt.encode_mb_per_s", unit: "MB/s", on: onStream},
	{name: "ckpt.image_bytes", unit: "B", on: onStream},
	{name: "ckpt.resume_ms", unit: "ms", on: onStream},
	{name: "reduce.ms", unit: "ms"},

	{name: "engine.w1_pkts_per_s", unit: "1/s"},
	{name: "engine.parallel_speedup", unit: "ratio"},
	{name: "engine.shard_skew", unit: "ratio"},
	{name: "engine.unattributed_share", unit: "ratio"},
	{name: "engine.alloc_bytes_per_pkt", unit: "B"},

	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.parity", unit: "count"},
}
