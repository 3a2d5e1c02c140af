package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRingNilSafety exercises every recorder/ring entry point on nil
// receivers — the disabled-recorder contract is that instrumented code
// needs no second flag.
func TestRingNilSafety(t *testing.T) {
	var rec *Recorder
	rec.Prepare(4)
	if got := rec.SliceItems(); got != 0 {
		t.Fatalf("nil recorder SliceItems = %d, want 0", got)
	}
	if rec.ShardRing(0) != nil || rec.DriverRing() != nil || rec.ReaderRing() != nil {
		t.Fatal("nil recorder returned a non-nil ring")
	}
	if rec.Timeline(time.Second) != nil {
		t.Fatal("nil recorder returned a non-nil timeline")
	}
	var ring *Ring
	if ring.Now() != 0 {
		t.Fatal("nil ring Now != 0")
	}
	ring.Span(StageAnalyze, 0, 1, 1)
	ring.Sample(CounterQueueDepth, 0, 1)
}

// TestRingOverflowDrops verifies the drop-newest policy: a full ring
// keeps its existing events, counts the losses, and never grows.
func TestRingOverflowDrops(t *testing.T) {
	rec := NewRecorder(RecorderConfig{RingEvents: 4})
	rec.Prepare(1)
	ring := rec.ShardRing(0)
	for i := 0; i < 10; i++ {
		ring.Span(StageAnalyze, int64(i), 1, 1)
	}
	tl := rec.Timeline(time.Second)
	if tl.Dropped != 6 {
		t.Fatalf("timeline dropped = %d, want 6", tl.Dropped)
	}
	var kept []int64
	for _, e := range tl.Events {
		if e.Ring == 0 {
			kept = append(kept, e.TS)
		}
	}
	if len(kept) != 4 || kept[0] != 0 || kept[3] != 3 {
		t.Fatalf("ring kept %v, want the four oldest events [0 1 2 3]", kept)
	}
}

// TestRecorderPrepareIdempotent pins the first-call-wins contract
// engine.Run relies on (quicsand prepares before the engine does).
func TestRecorderPrepareIdempotent(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	rec.Prepare(3)
	rec.Prepare(8) // must not re-shard
	ring := rec.ShardRing(2)
	if ring == nil {
		t.Fatal("shard 2 ring missing")
	}
	if rec.ShardRing(3) != nil {
		t.Fatal("second Prepare resized the ring set")
	}
	if rec.DriverRing() == nil || rec.ReaderRing() == nil {
		t.Fatal("driver/reader rings missing")
	}
	if rec.DriverRing() == rec.ReaderRing() {
		t.Fatal("driver and reader share a ring")
	}
}

// TestTimelineMergeOrder checks the canonical concatenation order:
// shard rings by index, then driver, then reader, each in record order.
func TestTimelineMergeOrder(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	rec.Prepare(2)
	rec.ReaderRing().Span(StageIngest, 30, 1, 1)
	rec.ShardRing(1).Span(StageAnalyze, 20, 1, 1)
	rec.ShardRing(0).Span(StageAnalyze, 10, 1, 1)
	rec.ShardRing(0).Span(StageAnalyze, 11, 1, 1)
	rec.DriverRing().Span(StageReduce, 40, 1, 1)
	tl := rec.Timeline(time.Second)

	var got []string
	for _, e := range tl.Events {
		got = append(got, e.Label)
	}
	want := []string{"shard 0", "shard 0", "shard 1", "driver", "reader"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merge order %v, want %v", got, want)
	}
	if tl.Workers != 2 || tl.WallNS != int64(time.Second) {
		t.Fatalf("timeline header = (%d workers, %d ns)", tl.Workers, tl.WallNS)
	}
	if got := tl.StageSpans(); got["analyze"] != 3 || got["ingest"] != 1 || got["reduce"] != 1 {
		t.Fatalf("StageSpans = %v", got)
	}
	if tl.SpanCount() != 5 {
		t.Fatalf("SpanCount = %d, want 5", tl.SpanCount())
	}
}

// TestChromeTraceWellFormed loads the exported trace back through
// encoding/json and checks the invariants scripts/trace_check.sh
// enforces in CI: required phases, microsecond timestamps, per-stage
// name/args fields, counter samples keyed by ring label.
func TestChromeTraceWellFormed(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	rec.Prepare(2)
	rec.ShardRing(0).Span(StageAnalyze, 1000, 2000, 7)
	rec.ShardRing(0).Span(StageGenerate, 3000, 500, 7)
	rec.ShardRing(1).Span(StageAnalyze, 1500, 2500, 9)
	rec.ShardRing(1).Sample(CounterQueueDepth, 4000, 3)
	rec.DriverRing().Span(StageMerge, 100, 50, 16)
	rec.ReaderRing().Sample(CounterRecords, 5000, 16)

	var buf bytes.Buffer
	if err := rec.Timeline(10 * time.Millisecond).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
		switch e.Ph {
		case "X":
			if e.Name == "" || e.Args["items"] == nil {
				t.Fatalf("span event missing name/items: %+v", e)
			}
		case "C":
			if !strings.Contains(e.Name, " · ") || e.Args["value"] == nil {
				t.Fatalf("counter event malformed: %+v", e)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] != 4 || phases["C"] != 2 {
		t.Fatalf("phase counts = %v, want M>0, X=4, C=2", phases)
	}
	// Spot-check the µs conversion: the 1000ns span start is 1µs.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == "analyze" && e.TS == 1.0 && e.Dur == 2.0 {
			return
		}
	}
	t.Fatalf("analyze span with ts=1µs dur=2µs not found in:\n%s", buf.String())
}

// TestTrackIDsDistinct pins the (ring, stage) → tid mapping: distinct
// tracks never collide and tid 0 stays reserved for metadata.
func TestTrackIDsDistinct(t *testing.T) {
	seen := map[int]bool{}
	for ring := 0; ring < 4; ring++ {
		for st := Stage(0); st <= numStages; st++ { // incl. counter lane
			id := trackID(ring, st)
			if id <= 0 {
				t.Fatalf("trackID(%d,%d) = %d, want > 0", ring, st, id)
			}
			if seen[id] {
				t.Fatalf("trackID collision at (%d,%d) = %d", ring, st, id)
			}
			seen[id] = true
		}
	}
}

// TestStageTable checks the busy-percentage distribution across
// intervals and the zero-wall guard.
func TestStageTable(t *testing.T) {
	tl := &Timeline{
		Workers: 1,
		WallNS:  1000,
		Events: []TimelineEvent{
			// Busy the whole first interval and half the second.
			{Ring: 0, Shard: 0, Label: "shard 0",
				Event: Event{Kind: kindSpan, Stage: StageAnalyze, TS: 0, Dur: 150}},
			// Counter samples must not contribute busy time.
			{Ring: 0, Shard: 0, Label: "shard 0",
				Event: Event{Kind: kindCounter, Counter: CounterQueueDepth, TS: 10, Items: 3}},
		},
	}
	out := tl.StageTable(10)
	if !strings.Contains(out, "analyze") {
		t.Fatalf("stage row missing:\n%s", out)
	}
	if !strings.Contains(out, "100   50    0") {
		t.Fatalf("busy distribution wrong (want 100%% then 50%% then 0%%):\n%s", out)
	}

	empty := (&Timeline{Workers: 1, WallNS: 0}).StageTable(10)
	if !strings.Contains(empty, "no time-sliced view") {
		t.Fatalf("zero-wall guard missing:\n%s", empty)
	}

	dropped := &Timeline{Workers: 1, WallNS: 100, Dropped: 9,
		Events: []TimelineEvent{{Label: "shard 0",
			Event: Event{Kind: kindSpan, Stage: StagePlan, TS: 0, Dur: 10}}}}
	if out := dropped.StageTable(2); !strings.Contains(out, "9 dropped") {
		t.Fatalf("drop note missing:\n%s", out)
	}
}

// TestStageCounterNames pins the track vocabulary the trace checker
// greps for.
func TestStageCounterNames(t *testing.T) {
	want := []string{"plan", "generate", "ingest", "scatter", "analyze", "dissect", "sessions", "merge", "reduce", "decode"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Fatalf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(200).String() != "unknown" || Counter(200).String() != "unknown" {
		t.Fatal("out-of-range names not clamped")
	}
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "unknown" || c.String() == "" {
			t.Fatalf("Counter(%d) unnamed", c)
		}
	}
}

// TestProvenance sanity-checks the build-info read: a test binary
// always knows its Go version, and WriteFile stamps it into manifests.
func TestProvenance(t *testing.T) {
	b := Provenance()
	if b.GoVersion == "" {
		t.Fatal("Provenance missing Go version")
	}
	m := &Manifest{Command: "test"}
	path := t.TempDir() + "/man.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if m.Build.GoVersion == "" {
		t.Fatal("WriteFile did not stamp build provenance")
	}
}
