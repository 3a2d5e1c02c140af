package quicsand

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
)

// TestTelemetryStreamDeterminism is the telemetry layer's determinism
// contract (DESIGN.md §13): the Stream projection of a run's Snapshot —
// every class:"stream" metric in the table — must be equal for every
// worker count; a replay of the run's checkpoint must reproduce the
// same dissect/session-side counters again, at any worker count, from
// either container format; and the streaming pipeline with a detector
// bank must reach the same counters plus worker-invariant Detect ones.
// A metric that fails here is not special-cased: it is retagged
// class:"runtime" with the reason in its doc comment.
func TestTelemetryStreamDeterminism(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 97, Scale: 0.01, ResearchThin: 1 << 14, Identity: id}
	same := func(label string, got, want telemetry.Snapshot) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream diverged:\n want %+v\n got  %+v", label, want, got)
		}
	}

	runWith := func(workers int) (*Analysis, []byte) {
		var trace bytes.Buffer
		cfg := base
		cfg.Workers, cfg.Trace = workers, telescope.NewWriter(&trace)
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.(*telescope.Writer).Flush(); err != nil {
			t.Fatal(err)
		}
		return a, trace.Bytes()
	}

	ref, qsnd := runWith(1)
	if ref.Telemetry == nil {
		t.Fatal("Run produced no telemetry snapshot")
	}
	want := ref.Telemetry.Stream()
	if want.Dissect.Datagrams == 0 || want.Sessions.Emitted == 0 || want.Generate.EventsPlanned == 0 ||
		want.Trace.Written == 0 {
		t.Fatalf("reference stream implausibly empty: %+v", want)
	}
	// Cross-check against the analysis itself: the trace recorded every
	// telescope capture. (Dissect.Datagrams is smaller — only UDP
	// QUIC-candidates reach deep dissection.)
	if want.Trace.Written != ref.Telescope.Total || want.Trace.Dropped != 0 {
		t.Errorf("trace counters %d/%d, want %d/0", want.Trace.Written, want.Trace.Dropped, ref.Telescope.Total)
	}

	for _, workers := range []int{2, 8} {
		a, _ := runWith(workers)
		same(fmt.Sprintf("workers=%d", workers), a.Telemetry.Stream(), want)
		if got := len(a.Telemetry.ShardPackets); got != workers {
			t.Errorf("workers=%d: %d shard counts", workers, got)
		}
	}

	// Replays: same dissect/session stream counters, no generate-side
	// counters (nothing was generated), ingest provenance filled in.
	type input struct {
		format string
		data   []byte // nil: the streamer's own generator (live)
		mapped bool   // replayed from a file through capture.OpenFile
	}
	pcap := convertToPcap(t, qsnd)
	inputs := []input{{"qsnd", qsnd, false}, {"pcap", pcap, false}}
	replayWant := want
	replayWant.Generate = telemetry.Generate{}
	replayWant.Trace.Written = 0 // replay ran without a trace sink
	replayWant.Ingest.Records = ref.Telescope.Total

	pcapPath := writeCapture(t, pcap)
	for _, workers := range []int{1, 2, 8} {
		// How the bytes reached the reader is runtime-class: the mapped
		// pcap must project to the streamed pcap's stream counters.
		for _, in := range append(inputs, input{"pcap", pcap, true}) {
			src := openStream(t, in.data)
			if in.mapped {
				src = openMapped(t, pcapPath)
			}
			cfg := base
			cfg.Workers = workers
			a, err := Replay(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			if a.Telemetry == nil {
				t.Fatalf("%s/workers=%d: no telemetry", in.format, workers)
			}
			replayWant.Ingest.Format = in.format
			label := fmt.Sprintf("replay %s/mapped=%v/workers=%d", in.format, in.mapped, workers)
			same(label, a.Telemetry.Stream(), replayWant)

			// The one runtime counter that says which: span bytes are all
			// copied from a stream, all lent by a mapping — on every surface.
			ing := a.Telemetry.Ingest
			wantCopied, wantText := ing.SpanBytes, fmt.Sprintf("span bytes 0 lent / %d copied", ing.SpanBytes)
			if in.mapped {
				wantCopied, wantText = 0, fmt.Sprintf("span bytes %d lent / 0 copied", ing.SpanBytes)
			}
			if (ing.SpanBytes > 0) != (workers > 1) || ing.SpanCopyBytes != wantCopied {
				t.Errorf("%s: %d span bytes, %d copied, want %d copied", label, ing.SpanBytes, ing.SpanCopyBytes, wantCopied)
			}
			if txt := a.StatsReport(); strings.Contains(txt, wantText) != (workers > 1) || strings.Count(txt, in.format) != 1 {
				t.Errorf("%s: -stats must name the container once and say %q:\n%s", label, wantText, txt)
			}
		}
	}

	// Streaming, with detectors: Detect.* joins the comparison. The
	// workers=1 run of each input is the reference for the others, and
	// with Detect set aside it must equal the batch run's projection.
	dcfg := detect.Default()
	stream := func(workers int, data []byte) telemetry.Snapshot {
		cfg := StreamConfig{Config: base, Detect: &dcfg}
		cfg.Workers = workers
		var final *streamRun
		var err error
		if data == nil {
			final, err = streamLive(cfg, 0, nil)
		} else {
			var src capture.Source
			if src, err = capture.NewSource(bytes.NewReader(data)); err == nil {
				final, err = streamReplay(cfg, src, 0, nil)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return final.Analysis().Telemetry.Stream()
	}
	// streamLive drives one sequential merger over the same schedule, so
	// its Generate stream rows must equal batch Run's at any worker count;
	// it ran without a trace sink.
	liveWant := want
	liveWant.Trace.Written = 0
	for _, in := range append(inputs, input{format: "live"}) {
		sref := stream(1, in.data)
		if d := sref.Detect; d.Observed == 0 || d.SourcesTracked == 0 || d.AlertsOpened == 0 ||
			d.AlertsClosed != d.AlertsOpened {
			t.Errorf("stream %s: detect counters implausible: %+v", in.format, d)
		}
		batch := liveWant
		if in.data != nil {
			batch = replayWant
			batch.Ingest.Format = in.format
		}
		batch.Detect = sref.Detect
		same("stream "+in.format+" vs batch", sref, batch)
		for _, workers := range []int{2, 8} {
			same(fmt.Sprintf("stream %s/workers=%d", in.format, workers), stream(workers, in.data), sref)
		}
	}
}

// convertToPcap re-containers a QSND checkpoint as pcap.
func convertToPcap(t *testing.T, qsnd []byte) []byte {
	t.Helper()
	return copyCapture(t, openStream(t, qsnd), capture.FormatPcap)
}

// copyCapture drains src into a fresh in-memory capture of format f.
func copyCapture(t *testing.T, src capture.Source, f capture.Format) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := capture.NewSink(&buf, f)
	if _, err := capture.Copy(sink, src); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTelemetrySnapshotConservation checks internal consistency of one
// parallel run's snapshot: every generated packet traverses exactly one
// shard, parse failures match the analysis's NonQUIC counter, and the
// dissector's subset relations hold after the merge.
func TestTelemetrySnapshotConservation(t *testing.T) {
	a, err := Run(Config{Seed: 11, Scale: 0.005, ResearchThin: 1 << 14, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot")
	}
	var shardSum uint64
	for _, n := range snap.ShardPackets {
		shardSum += n
	}
	if shardSum != snap.Generate.Packets {
		t.Errorf("shard packets sum %d != generated packets %d", shardSum, snap.Generate.Packets)
	}
	d := &snap.Dissect
	if d.Datagrams == 0 || d.Datagrams > shardSum {
		t.Errorf("dissected datagrams %d outside (0, %d]", d.Datagrams, shardSum)
	}
	if d.ParseFailures != uint64(a.NonQUIC) {
		t.Errorf("parse failures %d != NonQUIC %d", d.ParseFailures, a.NonQUIC)
	}
	if d.Packets < d.Datagrams-d.ParseFailures {
		t.Errorf("packet count %d below accepted datagrams %d", d.Packets, d.Datagrams-d.ParseFailures)
	}
	if sk := snap.Skew(); sk < 1 {
		t.Errorf("skew %g < 1 with traffic on %d shards", sk, len(snap.ShardPackets))
	}
	// A generated (non-replay) run must not carry ingest provenance.
	if snap.Ingest.Format != "" || snap.Ingest.Records != 0 {
		t.Errorf("generated run carries ingest provenance: %+v", snap.Ingest)
	}
}
