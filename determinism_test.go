package quicsand

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/scenario"
	"quicsand/internal/tlsmini"
)

// TestWorkersBitIdentical is the pipeline's determinism regression:
// the same seed at Workers=1 (the classic sequential pass) and
// Workers=8 must yield identical headline numbers, identical figure
// data, and a byte-identical trace checkpoint. The sharded engine's
// claim (DESIGN.md §8) is exactly this property — commutative counter
// merges plus canonical ordering erase the worker count from every
// result.
func TestWorkersBitIdentical(t *testing.T) {
	// One shared identity: certificate bytes are drawn from real
	// entropy, so byte-level trace comparison across separate runs
	// needs the runs to sign with the same certificate. Everything
	// else derives from the seed.
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(workers int) (*Analysis, []byte) {
		var trace bytes.Buffer
		w := capture.NewSink(&trace, capture.FormatQSND)
		a, err := Run(Config{
			Seed: 97, Scale: 0.01, ResearchThin: 1 << 14,
			Workers: workers, Trace: w, Identity: id,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return a, trace.Bytes()
	}

	seq, seqTrace := runWith(1)
	par, parTrace := runWith(8)

	if got, want := par.Headline(), seq.Headline(); got != want {
		t.Errorf("headline diverged:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	if got, want := par.RenderAll(), seq.RenderAll(); got != want {
		t.Error("figure data diverged between worker counts (see RenderAll)")
	}
	if !bytes.Equal(seqTrace, parTrace) {
		t.Errorf("trace checkpoints differ: %d vs %d bytes (or content)", len(seqTrace), len(parTrace))
	}

	// Spot-check structured results beyond the rendered strings.
	if len(seq.QUICSessions) != len(par.QUICSessions) {
		t.Fatalf("session counts: %d vs %d", len(seq.QUICSessions), len(par.QUICSessions))
	}
	for i := range seq.QUICSessions {
		a, b := seq.QUICSessions[i], par.QUICSessions[i]
		if a.Src != b.Src || a.Start != b.Start || a.End != b.End || a.Packets != b.Packets {
			t.Fatalf("session %d differs: %+v vs %+v", i, a, b)
		}
	}
	if seq.NonQUIC != par.NonQUIC || seq.Telescope.Total != par.Telescope.Total {
		t.Errorf("counters differ: nonQUIC %d/%d total %d/%d",
			seq.NonQUIC, par.NonQUIC, seq.Telescope.Total, par.Telescope.Total)
	}
	if seq.Sweep.Sessions(5) != par.Sweep.Sessions(5) {
		t.Errorf("sweep differs at 5 min: %d vs %d", seq.Sweep.Sessions(5), par.Sweep.Sessions(5))
	}
}

// stripIngest removes the ingest_* provenance lines from a headline
// JSON document. They sit before every always-present field, so the
// stripped replay document is byte-identical to the live one.
func stripIngest(doc string) string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, `"ingest_`) {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// expectSameAnalysis asserts two analyses agree on every rendered
// figure and on structured session/counter state.
func expectSameAnalysis(t *testing.T, label string, want, got *Analysis) {
	t.Helper()
	if g, w := got.Headline(), want.Headline(); g != w {
		t.Errorf("%s: headline diverged:\n--- want ---\n%s\n--- got ---\n%s", label, w, g)
	}
	if got.RenderAll() != want.RenderAll() {
		t.Errorf("%s: figure data diverged (see RenderAll)", label)
	}
	// Replay provenance (ingest_*) is the one intentional live-vs-replay
	// difference in the headline document; strip it before comparing.
	if stripIngest(got.HeadlineJSON()) != stripIngest(want.HeadlineJSON()) {
		t.Errorf("%s: headline JSON diverged", label)
	}
	if len(want.QUICSessions) != len(got.QUICSessions) {
		t.Fatalf("%s: session counts: %d vs %d", label, len(want.QUICSessions), len(got.QUICSessions))
	}
	for i := range want.QUICSessions {
		a, b := want.QUICSessions[i], got.QUICSessions[i]
		if a.Src != b.Src || a.Start != b.Start || a.End != b.End || a.Packets != b.Packets {
			t.Fatalf("%s: session %d differs: %+v vs %+v", label, i, a, b)
		}
	}
	if want.NonQUIC != got.NonQUIC || want.Telescope.Total != got.Telescope.Total {
		t.Errorf("%s: counters differ: nonQUIC %d/%d total %d/%d",
			label, want.NonQUIC, got.NonQUIC, want.Telescope.Total, got.Telescope.Total)
	}
	if want.Sweep.Sessions(5) != got.Sweep.Sessions(5) {
		t.Errorf("%s: sweep differs at 5 min: %d vs %d", label, want.Sweep.Sessions(5), got.Sweep.Sessions(5))
	}
}

// TestReplayBitIdentical is the capture subsystem's round-trip
// invariant (DESIGN.md §10): `Run → trace to disk → Replay` must
// reproduce the direct run's Analysis bit-identically for workers ∈
// {1, 2, 8} — from the native checkpoint and from its pcap export —
// and replaying with a trace sink must re-checkpoint byte-identically.
func TestReplayBitIdentical(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 97, Scale: 0.01, ResearchThin: 1 << 14, Identity: id}

	var trace bytes.Buffer
	w := capture.NewSink(&trace, capture.FormatQSND)
	recordCfg := base
	recordCfg.Workers, recordCfg.Trace = 4, w
	direct, err := Run(recordCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	qsnd := trace.Bytes()

	// Export the checkpoint as pcap; both containers must replay
	// identically.
	var pcapBuf bytes.Buffer
	src, err := capture.NewSource(bytes.NewReader(qsnd))
	if err != nil {
		t.Fatal(err)
	}
	sink := capture.NewSink(&pcapBuf, capture.FormatPcap)
	if n, err := capture.Copy(sink, src); err != nil || n != direct.Telescope.Total {
		t.Fatalf("pcap export: n=%d err=%v (want %d records)", n, err, direct.Telescope.Total)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	// The mmap variants replay the same two captures through the
	// capture.OpenFile zero-copy path (stable spans, offset framing).
	pcapData := pcapBuf.Bytes()
	qsndPath, pcapPath := writeCapture(t, qsnd), writeCapture(t, pcapData)
	inputs := []struct {
		name string
		open func() capture.Source
	}{
		{"qsnd", func() capture.Source { return openStream(t, qsnd) }},
		{"pcap", func() capture.Source { return openStream(t, pcapData) }},
		{"qsnd-mmap", func() capture.Source { return openMapped(t, qsndPath) }},
		{"pcap-mmap", func() capture.Source { return openMapped(t, pcapPath) }},
	}

	for _, workers := range []int{1, 2, 8} {
		for _, in := range inputs {
			cfg := base
			cfg.Workers = workers
			src := in.open()
			replayed, err := Replay(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			expectSameAnalysis(t, fmt.Sprintf("%s/workers=%d", in.name, workers), direct, replayed)
			if err := src.(io.Closer).Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Replay with a trace sink re-checkpoints the identical byte
	// stream (the analyze-while-converting path). From a mapped capture
	// the tapped packets' payloads alias the mapping across goroutines
	// until the source is closed, after the run.
	for _, in := range inputs {
		var retrace bytes.Buffer
		cfg := base
		cfg.Workers, cfg.Trace = 8, capture.NewSink(&retrace, capture.FormatQSND)
		src := in.open()
		if _, err := Replay(cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.(capture.Sink).Flush(); err != nil {
			t.Fatal(err)
		}
		if err := src.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(qsnd, retrace.Bytes()) {
			t.Errorf("%s: re-checkpoint differs: %d vs %d bytes (or content)", in.name, len(qsnd), len(retrace.Bytes()))
		}
	}
}

// TestScenarioDeterminism extends the §8/§10 invariants across the
// scenario layer: every built-in scenario must be bit-identical for
// Workers ∈ {1, 2, 8} — same figures, sessions, counters, and a
// byte-identical trace checkpoint — and `Run → record → Replay` of the
// checkpoint must reproduce the same Analysis. paper-2021 rides the
// existing TestWorkersBitIdentical / TestReplayBitIdentical coverage.
func TestScenarioDeterminism(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.Builtins() {
		if name == "paper-2021" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			base := Config{
				Seed: 53, Scale: 0.002, ResearchThin: 1 << 14,
				Identity: id, Scenario: sc,
			}
			runWith := func(workers int) (*Analysis, []byte) {
				var trace bytes.Buffer
				w := capture.NewSink(&trace, capture.FormatQSND)
				cfg := base
				cfg.Workers, cfg.Trace = workers, w
				a, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				return a, trace.Bytes()
			}

			seq, seqTrace := runWith(1)
			if seq.Telescope.Total == 0 {
				t.Fatal("empty scenario month")
			}
			for _, workers := range []int{2, 8} {
				par, parTrace := runWith(workers)
				expectSameAnalysis(t, fmt.Sprintf("workers=%d", workers), seq, par)
				if !bytes.Equal(seqTrace, parTrace) {
					t.Errorf("workers=%d: trace checkpoints differ: %d vs %d bytes (or content)",
						workers, len(seqTrace), len(parTrace))
				}
			}

			// Run → record → Replay at another worker count.
			src, err := capture.NewSource(bytes.NewReader(seqTrace))
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Workers = 8
			replayed, err := Replay(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			expectSameAnalysis(t, "replay", seq, replayed)
		})
	}
}

// TestSameSeedSameRun guards plain run-to-run reproducibility (the
// SCID pooling draw once leaked map iteration order into Figure 9).
func TestSameSeedSameRun(t *testing.T) {
	cfg := Config{Seed: 11, Scale: 0.005, ResearchThin: 1 << 14, Workers: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RenderAll() != b.RenderAll() {
		t.Error("two runs of the same seed diverged")
	}
}
