package quicsand

import (
	"bytes"
	"crypto/sha256"
	"io"
	"runtime"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/scenario"
)

// TestRecordingRecyclesSlabs holds a recording to the cost of the same
// run without a sink: the trace tap copies packet structs, so the
// generator recycles its slabs while recording. The recorded run must
// reuse exactly the slabs the untraced run does and allocate at most
// 1.5× its bytes. A tap that kept packet pointers would force recycling
// off and a fresh slab slot for every packet: 17× the bytes on the paper
// month.
func TestRecordingRecyclesSlabs(t *testing.T) {
	for _, name := range []string{"paper-2021", "handshake-flood-qfam"} {
		run := func(trace bool) (*Analysis, uint64) {
			sc, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Scenario: sc, Seed: 7, Scale: 0.01, ResearchThin: 64, Workers: 2}
			var sink capture.Sink
			if trace {
				sink = capture.NewSink(io.Discard, capture.FormatQSND)
				cfg.Trace = sink
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if trace && (sink.Count() != a.Telescope.Total || sink.Dropped() != 0) {
				t.Fatalf("%s: recorded %d of %d packets (%d dropped)", name, sink.Count(), a.Telescope.Total, sink.Dropped())
			}
			return a, after.TotalAlloc - before.TotalAlloc
		}
		run(false) // warm: the first generated packet builds the templates
		plain, plainBytes := run(false)
		rec, recBytes := run(true)
		pg, rg := plain.Telemetry.Generate, rec.Telemetry.Generate
		t.Logf("%s: %d packets; untraced %d B, recorded %d B (%.2f×); slab reuses %d / %d gets",
			name, rec.Telescope.Total, plainBytes, recBytes, float64(recBytes)/float64(plainBytes), rg.SlabReuses, rg.SlabGets)
		if rg.SlabReuses != pg.SlabReuses || rg.SlabGets != pg.SlabGets {
			t.Errorf("%s: recording reused %d of %d slabs, the untraced run %d of %d",
				name, rg.SlabReuses, rg.SlabGets, pg.SlabReuses, pg.SlabGets)
		}
		if float64(recBytes) > 1.5*float64(plainBytes) {
			t.Errorf("%s: recording allocated %d B, more than 1.5× the untraced run's %d B", name, recBytes, plainBytes)
		}
	}
}

// TestReRecordingMappedRecycles: a replay that re-records a mapped
// capture keeps the scatter recycling, since the tap copies packet
// structs and the payloads alias the mapping, and the re-recorded bytes
// equal the capture. Each shard then decodes into its one packet slab, so
// the replay allocates at most 40 B per record: 24 are a span table per
// record should no batch come back, and a slab per batch adds 56 more
// (92 B per record in all when recycling was off under every tap). The
// paced reader allocates at most twice the scatter batches a replay of
// the capture without a sink does: unpaced, it ran ahead of the shards
// the tap held back, and behind a 4-batch tap window it allocated
// 6 796–6 980 of the 9 321.
func TestReRecordingMappedRecycles(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.01, ResearchThin: 64, Workers: 2}
	var month bytes.Buffer
	sink := capture.NewSink(&month, capture.FormatQSND)
	cfg.Trace = sink
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := writeCapture(t, month.Bytes())
	digest := sha256.New()
	cfg.Trace = capture.NewSink(digest, capture.FormatQSND)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, _, err := ReplayAlerts(StreamConfig{Config: cfg}, openMapped(t, path))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.(capture.Sink).Flush(); err != nil {
		t.Fatal(err)
	}
	in := a.Telemetry.Ingest
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(in.Records)
	t.Logf("%d records in %d batches: %d batches allocated, %d reused; %.1f B allocated per record",
		in.Records, in.Batches, in.BatchAllocs, in.BatchReuses, perRecord)
	if perRecord > 40 {
		t.Errorf("re-recording allocated %.1f B per record, more than 40", perRecord)
	}
	if want := sha256.Sum256(month.Bytes()); !bytes.Equal(digest.Sum(nil), want[:]) {
		t.Error("the re-recorded bytes differ from the capture")
	}
	cfg.Trace = nil
	plain, err := Replay(cfg, openMapped(t, path))
	if err != nil {
		t.Fatal(err)
	}
	unsinked := plain.Telemetry.Ingest.BatchAllocs
	t.Logf("a replay without a sink allocated %d batches", unsinked)
	if in.BatchAllocs > 2*unsinked {
		t.Errorf("re-recording allocated %d scatter batches, more than twice the %d of a replay without a sink", in.BatchAllocs, unsinked)
	}
}
