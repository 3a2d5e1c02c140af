package telemetry

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestTextEmptySnapshot pins the degenerate rendering: a snapshot that
// saw no traffic at all prints only its header line — no stray
// sections, no divide-by-zero means.
func TestTextEmptySnapshot(t *testing.T) {
	s := &Snapshot{}
	out := s.Text()
	if want := "telemetry (0 workers)\n"; out != want {
		t.Fatalf("empty snapshot rendered %q, want %q", out, want)
	}
}

// TestTextSalvageLine checks the salvage line appears exactly when a
// degraded ingest recorded damage, and stays absent for clean replays
// even with nonzero ingest traffic.
func TestTextSalvageLine(t *testing.T) {
	clean := &Snapshot{Workers: 2}
	clean.Ingest.Records = 100
	clean.Ingest.Format = "qsnd"
	if out := clean.Text(); strings.Contains(out, "salvage:") {
		t.Fatalf("clean ingest rendered a salvage line:\n%s", out)
	}

	damaged := &Snapshot{Workers: 2}
	damaged.Ingest.Records = 100
	damaged.Ingest.Format = "qsnd"
	damaged.Ingest.CorruptRecords = 3
	damaged.Ingest.ResyncScans = 2
	damaged.Ingest.SalvagedBytes = 512
	damaged.Ingest.SalvageMaxLost = 5
	out := damaged.Text()
	if !strings.Contains(out, "salvage:  3 corrupt records skipped over 2 resyncs") {
		t.Fatalf("salvage line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "<= 5 records lost") {
		t.Fatalf("max-lost bound missing:\n%s", out)
	}

	// Transient retries alone (no corruption) must still surface.
	retries := &Snapshot{Workers: 1}
	retries.Ingest.Records = 10
	retries.Ingest.Format = "pcap"
	retries.Ingest.TransientRetries = 4
	if out := retries.Text(); !strings.Contains(out, "salvage:") {
		t.Fatalf("retry-only salvage line missing:\n%s", out)
	}
}

// TestTextBatchDetail checks the ingest batch sub-clause renders only
// when the scatter actually batched (replays), so an ingest without
// batches keeps a clean line.
func TestTextBatchDetail(t *testing.T) {
	inline := &Snapshot{Workers: 1}
	inline.Ingest.Records = 50
	inline.Ingest.Format = "qsnd"
	if out := inline.Text(); strings.Contains(out, "batches") {
		t.Fatalf("inline ingest rendered batch detail:\n%s", out)
	}

	batched := &Snapshot{Workers: 2}
	batched.Ingest.Records = 50
	batched.Ingest.Format = "qsnd"
	batched.Ingest.Batches = 2
	batched.Ingest.BatchFill.Observe(25)
	batched.Ingest.BatchFill.Observe(25)
	if out := batched.Text(); !strings.Contains(out, "2 batches (mean fill 25.0") {
		t.Fatalf("batch detail missing:\n%s", out)
	}
}

// TestStageTableZeroWall pins the zero-wall-clock guard in the stats
// view from the caller's side: events recorded but no elapsed time
// (a sub-millisecond run rounded to zero) must not divide by zero.
func TestStageTableZeroWall(t *testing.T) {
	tl := &Timeline{
		Workers: 1,
		WallNS:  0,
		Events: []TimelineEvent{{Label: "shard 0",
			Event: Event{Kind: kindSpan, Stage: StageAnalyze, TS: 0, Dur: 10}}},
	}
	out := tl.StageTable(10)
	if !strings.Contains(out, "no time-sliced view") {
		t.Fatalf("zero-wall guard missing:\n%s", out)
	}
	if !strings.Contains(out, "1 events") {
		t.Fatalf("event count header missing:\n%s", out)
	}

	// cols < 1 falls back to the default width instead of panicking.
	ok := &Timeline{Workers: 1, WallNS: 1000,
		Events: []TimelineEvent{{Label: "shard 0",
			Event: Event{Kind: kindSpan, Stage: StageAnalyze, TS: 0, Dur: 10}}}}
	if out := ok.StageTable(0); !strings.Contains(out, "10 intervals") {
		t.Fatalf("cols fallback missing:\n%s", out)
	}
}

// TestPrometheusSalvageCounters checks the five salvage ingest_*
// counters render (present with zero values on clean runs — scrapers
// need stable series).
func TestPrometheusSalvageCounters(t *testing.T) {
	var b strings.Builder
	(&Snapshot{}).WritePrometheus(&b, "q")
	doc := b.String()
	for _, name := range []string{
		"q_ingest_corrupt_records_total 0",
		"q_ingest_resync_scans_total 0",
		"q_ingest_salvaged_bytes_total 0",
		"q_ingest_salvage_max_lost_total 0",
		"q_ingest_transient_retries_total 0",
	} {
		if !strings.Contains(doc, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
}

// promFamilies splits an exposition document into families keyed by
// name, each the family's full text (HELP, TYPE, samples). It fails the
// test on a family without both preamble lines or a sample outside one.
func promFamilies(t *testing.T, doc string) map[string]string {
	t.Helper()
	fams := map[string]string{}
	var cur string
	for _, line := range strings.SplitAfter(doc, "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 0:
			continue
		case f[0] == "#" && f[1] == "HELP" && len(f) > 3:
			if _, dup := fams[f[2]]; dup {
				t.Errorf("family %s declared twice", f[2])
			}
			cur = f[2]
		case f[0] == "#" && f[1] == "TYPE" && len(f) == 4:
			if f[2] != cur || strings.Count(fams[cur], "\n") != 1 {
				t.Errorf("TYPE line %q does not follow its HELP", line)
			}
		case len(f) != 2 || !strings.HasPrefix(f[0], cur) || strings.Count(fams[cur], "\n") < 2:
			t.Errorf("malformed sample %q in family %q", line, cur)
		}
		fams[cur] += line
	}
	return fams
}

// TestWritePrometheusFromTable checks the derived exposition: one
// well-formed family per table row plus the three run-shape families,
// and — against the document the hand-written PR-15 exposition produced
// for the same snapshot — every family that existed then is still
// served with the same name, HELP, TYPE and samples. The snapshot is
// loaded from the JSON PR 15 wrote and must marshal back to those
// bytes, which pins every json key of the manifest's telemetry object.
func TestWritePrometheusFromTable(t *testing.T) {
	golden, err := os.ReadFile("testdata/pr15_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(golden, &s); err != nil {
		t.Fatal(err)
	}
	if back, _ := json.MarshalIndent(&s, "", "  "); string(back)+"\n" != string(golden) {
		t.Errorf("snapshot JSON changed shape:\n%s", back)
	}

	var b strings.Builder
	s.WritePrometheus(&b, "quicsand")
	got := promFamilies(t, b.String())
	if want := len(table) + 3; len(got) != want {
		t.Errorf("%d families, want %d (table rows + workers/shard_packets/shard_skew)", len(got), want)
	}
	for _, name := range []string{
		"quicsand_ingest_span_bytes_total", "quicsand_ingest_span_copy_bytes_total",
		"quicsand_ingest_format_info",
	} {
		if got[name] == "" {
			t.Errorf("family %s missing", name)
		}
	}

	parent, err := os.ReadFile("testdata/pr15_exposition.prom")
	if err != nil {
		t.Fatal(err)
	}
	was := promFamilies(t, string(parent))
	if len(was) != 47 {
		t.Fatalf("PR-15 golden holds %d families, want 47", len(was))
	}
	for name, text := range was {
		if got[name] != text {
			t.Errorf("family %s changed:\n was %q\n now %q", name, text, got[name])
		}
	}
}
