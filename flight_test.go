package quicsand

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/engine"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
)

// flightRec builds a small-slice recorder so even a 0.01-scale test
// month closes many slices per shard.
func flightRec() *telemetry.Recorder {
	return telemetry.NewRecorder(telemetry.RecorderConfig{SliceItems: 4096})
}

// TestFlightStructuralDeterminism is the flight recorder's acceptance
// contract (DESIGN.md §15): for a fixed scenario and worker count the
// per-stage event counts are identical across repeated runs and across
// live/qsnd/pcap execution — timestamps and durations are the only
// nondeterministic payload.
func TestFlightStructuralDeterminism(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 97, Scale: 0.01, ResearchThin: 1 << 14, Identity: id}
	const workers = 3

	liveRun := func(trace telescope.Sink) *Analysis {
		cfg := base
		cfg.Workers, cfg.Trace, cfg.FlightRecorder = workers, trace, flightRec()
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Flight == nil {
			t.Fatal("recorder armed but Analysis.Flight is nil")
		}
		return a
	}

	var traceBuf bytes.Buffer
	ref := liveRun(capture.NewSink(&traceBuf, capture.FormatQSND))
	want := ref.Flight.StageSpans()
	if want["analyze"] == 0 || want["generate"] == 0 || want["dissect"] == 0 ||
		want["sessions"] == 0 || want["merge"] == 0 || want["plan"] != 1 || want["reduce"] != 1 {
		t.Fatalf("reference span structure implausible: %v", want)
	}
	if ref.Flight.Workers != workers {
		t.Fatalf("timeline workers = %d, want %d", ref.Flight.Workers, workers)
	}

	// Repeated live runs: identical span structure (checkpointed and
	// not — the tap changes merge spans, so compare like with like).
	var traceBuf2 bytes.Buffer
	if got := liveRun(capture.NewSink(&traceBuf2, capture.FormatQSND)).Flight.StageSpans(); !sameSpans(got, want) {
		t.Errorf("repeated live run diverged:\n want %v\n got  %v", want, got)
	}

	// Replays from both container formats, repeated: identical span
	// structure run-to-run and format-to-format.
	if err := flushWriter(ref.Config.Trace); err != nil {
		t.Fatal(err)
	}
	qsnd := traceBuf.Bytes()
	pcap := convertToPcap(t, qsnd)

	replaySpans := func(data []byte) map[string]uint64 {
		src, err := capture.NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Workers, cfg.FlightRecorder = workers, flightRec()
		a, err := Replay(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		return a.Flight.StageSpans()
	}

	rq := replaySpans(qsnd)
	if got := replaySpans(qsnd); !sameSpans(got, rq) {
		t.Errorf("repeated qsnd replay diverged:\n want %v\n got  %v", rq, got)
	}
	if got := replaySpans(pcap); !sameSpans(got, rq) {
		t.Errorf("pcap replay diverged from qsnd:\n qsnd %v\n pcap %v", rq, got)
	}

	// Replay feed-side spans are named scatter/ingest instead of
	// generate; every shared stage must agree with the live run.
	if rq["scatter"] == 0 || rq["ingest"] == 0 || rq["generate"] != 0 {
		t.Errorf("replay feed stages wrong: %v", rq)
	}
	// Decode-after-scatter runs on the shards during replay: live runs
	// never decode, replays must record the stage.
	if want["decode"] != 0 {
		t.Errorf("live run recorded %d decode spans, want none", want["decode"])
	}
	if rq["decode"] == 0 {
		t.Errorf("multi-worker replay recorded no decode spans: %v", rq)
	}
	if rq["scatter"] != want["generate"] {
		t.Errorf("scatter spans %d != live generate spans %d (same slicing)", rq["scatter"], want["generate"])
	}
	for _, stage := range []string{"plan", "analyze", "dissect", "sessions", "reduce"} {
		if rq[stage] != want[stage] {
			t.Errorf("shared stage %q: replay %d != live %d", stage, rq[stage], want[stage])
		}
	}
}

// TestFlightStreamDeterminism is the streaming leg of the contract: a
// Streamer's shards run on the batch runs' engine, so streamReplay at a
// fixed worker count records a repeatable span structure whose worker
// tracks equal batch Replay's and every offered packet is inside exactly
// one analyze span — at three shards and at one.
func TestFlightStreamDeterminism(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 97, Scale: 0.01, ResearchThin: 1 << 14, Identity: id}
	var traceBuf bytes.Buffer
	w := capture.NewSink(&traceBuf, capture.FormatQSND)
	rcfg := base
	rcfg.Workers, rcfg.Trace = 2, w
	if _, err := Run(rcfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	qsnd := traceBuf.Bytes()

	streamed := func(workers int) (*Analysis, uint64) {
		src, err := capture.NewSource(bytes.NewReader(qsnd))
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Workers, cfg.FlightRecorder = workers, flightRec()
		final, err := streamReplay(StreamConfig{Config: cfg}, src, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := final.Analysis()
		if a.Flight == nil {
			t.Fatalf("workers=%d: recorder armed but the final checkpoint's Analysis has no Flight", workers)
		}
		return a, final.Position()
	}

	// One shard is dispatched like three: the same engine, the same tracks.
	for _, workers := range []int{3, 1} {
		a, position := streamed(workers)
		spans := a.Flight.StageSpans()
		if again, _ := streamed(workers); !sameSpans(again.Flight.StageSpans(), spans) {
			t.Errorf("workers=%d: repeated stream replay diverged:\n want %v\n got  %v", workers, spans, again.Flight.StageSpans())
		}
		var analyzed uint64
		for i := range a.Flight.Events {
			if e := &a.Flight.Events[i]; e.IsSpan() && e.Stage == telemetry.StageAnalyze {
				analyzed += e.Items
			}
		}
		if analyzed != position || position == 0 {
			t.Errorf("workers=%d: analyze spans cover %d items, stream position %d", workers, analyzed, position)
		}
		var st engine.Stage
		if i := slices.IndexFunc(a.Pipeline.Stages, func(s engine.Stage) bool { return s.Name == "analyze" }); i >= 0 {
			st = a.Pipeline.Stages[i]
		}
		if st.Items != position || st.Wall <= 0 || a.Pipeline.Wall <= 0 ||
			len(a.Pipeline.ShardBusy) != workers {
			t.Errorf("workers=%d: final checkpoint's Pipeline lacks the engine's run: %+v", workers, a.Pipeline)
		}

		src, err := capture.NewSource(bytes.NewReader(qsnd))
		if err != nil {
			t.Fatal(err)
		}
		bcfg := base
		bcfg.Workers, bcfg.FlightRecorder = workers, flightRec()
		batch, err := Replay(bcfg, src)
		if err != nil {
			t.Fatal(err)
		}
		bs := batch.Flight.StageSpans()
		for _, stage := range []string{"plan", "scatter", "analyze", "dissect", "sessions", "reduce"} {
			if spans[stage] == 0 || spans[stage] != bs[stage] {
				t.Errorf("workers=%d: stage %q: stream replay %d spans, batch replay %d", workers, stage, spans[stage], bs[stage])
			}
		}
	}
}

// sameSpans compares two per-stage span-count maps.
func sameSpans(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// flushWriter settles a telescope trace sink if it buffers.
func flushWriter(s telescope.Sink) error {
	if w, ok := s.(capture.Sink); ok {
		return w.Flush()
	}
	return nil
}

// TestFlightTraceExportDeterminism checks the exported Chrome trace is
// structurally deterministic: after zeroing ts/dur values, two runs of
// the same scenario at the same worker count serialize byte-identically.
func TestFlightTraceExportDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := Config{Seed: 7, Scale: 0.005, ResearchThin: 1 << 14,
			Workers: 2, FlightRecorder: flightRec()}
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Flight.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return normalizeTrace(t, buf.Bytes())
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("normalized traces differ:\n%s\n---\n%s", a, b)
	}
}

// normalizeTrace parses a Chrome trace and re-serializes it with every
// timestamp, duration and counter/arg value zeroed — the structural
// projection (event order, phases, tracks, names).
func normalizeTrace(t *testing.T, data []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatal("traceEvents missing")
	}
	for _, raw := range evs {
		e := raw.(map[string]any)
		delete(e, "ts")
		delete(e, "dur")
		if e["ph"] == "C" || e["ph"] == "X" {
			// Counter values and span item counts are stream-derived and
			// deterministic too, but the merge span's per-slice item split
			// between full/final slices is; keep them and only strip time.
			continue
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlightRingOverflow forces ring overflow on a real run and checks
// the run completes, losses are counted, and the export stays loadable.
func TestFlightRingOverflow(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.005, ResearchThin: 1 << 14, Workers: 2,
		FlightRecorder: telemetry.NewRecorder(telemetry.RecorderConfig{
			SliceItems: 256, RingEvents: 8,
		})}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flight.Dropped == 0 {
		t.Fatal("tiny rings on a real run recorded zero drops")
	}
	var buf bytes.Buffer
	if err := a.Flight.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("overflowed trace does not parse: %v", err)
	}
	if !bytes.Contains([]byte(a.StatsReport()), []byte("dropped on full rings")) {
		t.Error("stats report does not surface ring drops")
	}
}

// TestFlightDisabledByDefault pins the zero-cost default: without a
// recorder the analysis carries no timeline and results are identical
// to a recorded run's.
func TestFlightDisabledByDefault(t *testing.T) {
	base := Config{Seed: 5, Scale: 0.005, ResearchThin: 1 << 14, Workers: 2}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Flight != nil {
		t.Fatal("unrecorded run carries a flight timeline")
	}
	rec := base
	rec.FlightRecorder = flightRec()
	traced, err := Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traced.Headline(), plain.Headline(); got != want {
		t.Errorf("recorder changed analysis results:\n want %s\n got  %s", want, got)
	}
	if got, want := fmt.Sprint(traced.Telemetry.Stream()), fmt.Sprint(plain.Telemetry.Stream()); got != want {
		t.Errorf("recorder changed stream telemetry:\n want %s\n got  %s", want, got)
	}
}
