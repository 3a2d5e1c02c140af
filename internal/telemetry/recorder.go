package telemetry

// The flight recorder (DESIGN.md §15): time-resolved spans and counter
// samples for the pipeline stages, recorded into shard-local,
// preallocated, single-writer ring buffers under the same discipline as
// the counter banks — no atomics, no locks, no allocation on the hot
// path, and a disabled recorder costs exactly one nil check per
// instrumented site. After the pipeline joins, the rings merge into a
// Timeline that exports as Chrome trace-event JSON (Perfetto-loadable)
// and renders as the per-stage time-sliced table in `-stats`.
//
// Determinism contract: span *structure* (which stages emit how many
// events per ring) is derived from stream positions — a span closes
// every SliceItems items — so for a fixed scenario and worker count the
// per-stage event counts are bit-identical across repeated runs and
// across live/replay execution. Timestamps and durations are the only
// nondeterministic payload, and they are excluded from every
// determinism check.

import (
	"time"
)

// Stage identifies one pipeline stage on the flight recorder's tracks.
type Stage uint8

const (
	// StagePlan is the scheduling phase (scenario compile, ledger).
	StagePlan Stage = iota
	// StageGenerate is feed-side time in live runs: the shard worker
	// pulling packets out of its generator merger.
	StageGenerate
	// StageIngest is the replay reader: decoding records from a stored
	// capture and dealing batches to the shards (telescoped: the socket
	// feed wait).
	StageIngest
	// StageScatter is feed-side time in replays: the shard worker
	// draining its scatter queue.
	StageScatter
	// StageAnalyze is the shard worker's processing time (everything
	// inside process: telescope, dissect, sessionize, detect).
	StageAnalyze
	// StageDissect is the QUIC dissection share of analyze, aggregated
	// per slice.
	StageDissect
	// StageSessions is the sessionizer share of analyze, aggregated per
	// slice.
	StageSessions
	// StageMerge is the trace tap's k-way merge.
	StageMerge
	// StageReduce is the end-of-run shard reduction.
	StageReduce
	// StageDecode is the shard-side record decode on the replay
	// decode-after-scatter path: parsing batches of framed spans the
	// ingest reader routed to the shard.
	StageDecode

	numStages
)

var stageNames = [numStages]string{
	"plan", "generate", "ingest", "scatter", "analyze",
	"dissect", "sessions", "merge", "reduce", "decode",
}

// String returns the stage's track name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Counter identifies one sampled quantity on a counter track.
type Counter uint8

const (
	// CounterQueueDepth is the shard's tap queue depth in batches.
	CounterQueueDepth Counter = iota
	// CounterRecords is the cumulative record count read by the ingest
	// reader (the Perfetto slope of this track is the ingest rate).
	CounterRecords
	// CounterBatchFill is the mean scatter batch fill over the slice.
	CounterBatchFill
	// CounterRecycleHits is the cumulative recycled-buffer count.
	CounterRecycleHits

	numCounters
)

var counterNames = [numCounters]string{
	"queue depth", "ingest records", "batch fill", "recycle hits",
}

// String returns the counter's track name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Event kinds inside a ring.
const (
	kindSpan uint8 = iota
	kindCounter
)

// Event is one recorded ring entry: a completed span (begin/end pair,
// closed-form) or a counter sample. Value-typed and fixed-size so rings
// preallocate storage once and recording never allocates.
type Event struct {
	Kind    uint8   `json:"kind"`
	Stage   Stage   `json:"stage"`
	Counter Counter `json:"counter"`
	// TS is nanoseconds since the recorder epoch; Dur is the span
	// length (0 for counter samples).
	TS  int64 `json:"ts"`
	Dur int64 `json:"dur"`
	// Items carries the span's item count or the counter value.
	Items uint64 `json:"items"`
}

// IsSpan reports whether the event is a completed span.
func (e *Event) IsSpan() bool { return e.Kind == kindSpan }

// Ring is one single-writer span ring: a preallocated event buffer
// owned by exactly one goroutine (a shard worker, the tap-merge/driver
// goroutine, or the ingest reader). Recording is an append into
// preallocated storage; when the ring is full new events are dropped
// and counted (drop-newest keeps the run's opening timeline intact and
// the writer wait-free — DESIGN.md §15). All methods are nil-safe
// no-ops so a disabled recorder costs one nil check at each site.
type Ring struct {
	shard   int // shard index, or -1 for the driver/reader rings
	label   string
	epoch   time.Time
	events  []Event
	dropped uint64
}

// Now returns the ring's clock: nanoseconds since the recorder epoch.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Span records one completed span.
func (r *Ring) Span(stage Stage, startNS, durNS int64, items uint64) {
	if r == nil {
		return
	}
	if len(r.events) == cap(r.events) {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		Kind: kindSpan, Stage: stage, TS: startNS, Dur: durNS, Items: items,
	})
}

// Sample records one counter sample.
func (r *Ring) Sample(c Counter, tsNS int64, value uint64) {
	if r == nil {
		return
	}
	if len(r.events) == cap(r.events) {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		Kind: kindCounter, Counter: c, TS: tsNS, Items: value,
	})
}

// RecorderConfig sizes the flight recorder.
type RecorderConfig struct {
	// SliceItems is the number of items per recorded slice: every
	// SliceItems processed items each instrumented goroutine closes its
	// open spans and starts new ones. Stream-position-derived, so slice
	// counts — and with them per-stage event counts — are deterministic
	// for a fixed input and worker count. Default 65536.
	SliceItems int
	// RingEvents is each ring's preallocated event capacity; overflow
	// drops new events (counted per ring). Default 8192.
	RingEvents int
}

func (c RecorderConfig) sliceItems() int {
	if c.SliceItems > 0 {
		return c.SliceItems
	}
	return 65536
}

func (c RecorderConfig) ringEvents() int {
	if c.RingEvents > 0 {
		return c.RingEvents
	}
	return 8192
}

// Recorder is one run's flight recorder: a fixed set of rings created
// before the pipeline starts — one per shard plus one for the driver
// goroutine (plan, tap merge, reduce) and one for the ingest reader.
// A nil *Recorder is the disabled recorder: every method is a no-op
// returning nil rings, so instrumented code needs no second flag.
//
// A Recorder records exactly one run; build a fresh one per run.
type Recorder struct {
	cfg   RecorderConfig
	epoch time.Time
	rings []*Ring
	// shards is the worker count Prepare fixed (0 until prepared).
	shards int
}

// NewRecorder creates a recorder and stamps its epoch; ring storage is
// allocated by Prepare once the shard count is known.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{cfg: cfg, epoch: time.Now()}
}

// SliceItems returns the configured slice length.
func (r *Recorder) SliceItems() int {
	if r == nil {
		return 0
	}
	return r.cfg.sliceItems()
}

// Prepare allocates the ring set for the given shard count: rings
// 0..shards-1 are the shard workers', plus the driver and reader rings.
// Idempotent — the first call wins — and must happen before the
// pipeline starts (it is the only allocating step).
func (r *Recorder) Prepare(shards int) {
	if r == nil || r.shards != 0 {
		return
	}
	if shards < 1 {
		shards = 1
	}
	r.shards = shards
	r.rings = make([]*Ring, shards+2)
	capEvents := r.cfg.ringEvents()
	for i := range r.rings {
		ring := &Ring{shard: -1, epoch: r.epoch, events: make([]Event, 0, capEvents)}
		switch {
		case i < shards:
			ring.shard = i
			ring.label = "shard " + itoa(i)
		case i == shards:
			ring.label = "driver"
		default:
			ring.label = "reader"
		}
		r.rings[i] = ring
	}
}

// ShardRing returns shard i's ring (nil when disabled or unprepared).
func (r *Recorder) ShardRing(i int) *Ring {
	if r == nil || i < 0 || i >= r.shards {
		return nil
	}
	return r.rings[i]
}

// DriverRing returns the driver goroutine's ring: the caller of
// engine.Run (plan and reduce spans) and the tap-merge loop that runs
// on that same goroutine.
func (r *Recorder) DriverRing() *Ring {
	if r == nil || r.shards == 0 {
		return nil
	}
	return r.rings[r.shards]
}

// ReaderRing returns the ingest reader goroutine's ring (the capture
// scatter's dealer, or telescoped's socket reader).
func (r *Recorder) ReaderRing() *Ring {
	if r == nil || r.shards == 0 {
		return nil
	}
	return r.rings[r.shards+1]
}

// TimelineEvent is one merged timeline entry: the event plus its
// originating track.
type TimelineEvent struct {
	// Ring is the ring index (shard index, then driver, then reader).
	Ring int `json:"ring"`
	// Shard is the shard index, -1 for the driver and reader rings.
	Shard int    `json:"shard"`
	Label string `json:"label"`
	Event
}

// Timeline is the merged, immutable view of a completed run's rings —
// the flight recorder's output. Events are concatenated in canonical
// ring order (shard 0..n-1, driver, reader), each ring already in
// record order, so two structurally identical runs produce timelines
// that differ only in timestamp values.
type Timeline struct {
	// Workers is the shard count of the recorded run.
	Workers int `json:"workers"`
	// WallNS is the run's total wall time.
	WallNS int64 `json:"wall_ns"`
	// Dropped counts ring-overflow losses across all rings.
	Dropped uint64          `json:"dropped"`
	Events  []TimelineEvent `json:"events"`
}

// Timeline merges the rings into the canonical timeline. Call once,
// after the pipeline has joined (every ring's writer goroutine has
// exited); the recorder is exhausted afterwards.
func (r *Recorder) Timeline(wall time.Duration) *Timeline {
	if r == nil || r.shards == 0 {
		return nil
	}
	t := &Timeline{Workers: r.shards, WallNS: int64(wall)}
	for i, ring := range r.rings {
		t.Dropped += ring.dropped
		for j := range ring.events {
			t.Events = append(t.Events, TimelineEvent{
				Ring: i, Shard: ring.shard, Label: ring.label, Event: ring.events[j],
			})
		}
	}
	return t
}

// StageSpans counts completed spans per stage — the structural
// projection the determinism tests compare (timestamps excluded).
func (t *Timeline) StageSpans() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range t.Events {
		if e := &t.Events[i]; e.IsSpan() {
			out[e.Stage.String()]++
		}
	}
	return out
}

// SpanCount returns the total completed-span count.
func (t *Timeline) SpanCount() uint64 {
	var n uint64
	for i := range t.Events {
		if t.Events[i].IsSpan() {
			n++
		}
	}
	return n
}

// itoa is a minimal non-negative integer formatter (avoids strconv in
// the Prepare path for symmetry; not hot).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
