package quicsand

import (
	"bytes"
	"fmt"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/telescope"
)

// streamGoldenConfigs returns the golden-corpus run parameters as
// StreamConfigs at the given worker count: the same five built-ins the
// frozen-fixture regression pins, so the stream≡batch differential
// rides the exact workloads every other invariant is proven on.
func streamGoldenConfigs(t *testing.T, workers int) []struct {
	name string
	cfg  StreamConfig
} {
	t.Helper()
	id := goldenIdentity(t)
	out := make([]struct {
		name string
		cfg  StreamConfig
	}, 0, len(goldenRuns))
	for _, run := range goldenRuns {
		cfg := goldenConfig(run.name, run.scale, id, t)
		cfg.Workers = workers
		out = append(out, struct {
			name string
			cfg  StreamConfig
		}{run.name, StreamConfig{Config: cfg}})
	}
	return out
}

// TestStreamEqualsBatch is the tentpole differential: for every golden
// built-in, at workers ∈ {1, 2, 8}, fed live (generator merger), from
// the QSND checkpoint, and from its pcap export, the streaming
// pipeline must produce
//
//   - a mid-stream Checkpoint at captured-packet N whose Analysis is
//     bit-identical to a fresh batch Replay truncated at N records, and
//   - a final Close checkpoint whose Analysis is bit-identical to the
//     batch run of the whole stream,
//
// proving Checkpoint observes exactly the first N packets' state with
// ingest still running — the stream≡batch contract (DESIGN.md §17).
func TestStreamEqualsBatch(t *testing.T) {
	for _, run := range streamGoldenConfigs(t, 4) {
		run := run
		t.Run(run.name, func(t *testing.T) {
			// Batch side: direct run recording the canonical trace, plus
			// its pcap export.
			var trace bytes.Buffer
			w := capture.NewSink(&trace, capture.FormatQSND)
			recordCfg := run.cfg.Config
			recordCfg.Trace = w
			direct, err := Run(recordCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			qsnd := trace.Bytes()
			total := direct.Telescope.Total
			if total < 4 {
				t.Fatalf("scenario too small for a mid-stream checkpoint: %d captured", total)
			}

			var pcapBuf bytes.Buffer
			src, err := capture.NewSource(bytes.NewReader(qsnd))
			if err != nil {
				t.Fatal(err)
			}
			sink := capture.NewSink(&pcapBuf, capture.FormatPcap)
			if n, err := capture.Copy(sink, src); err != nil || n != total {
				t.Fatalf("pcap export: n=%d err=%v (want %d records)", n, err, total)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			pcapData := pcapBuf.Bytes()

			// Truncated batch baseline: a fresh Replay over a real capture
			// of exactly the first N records of the stream, sharded like
			// any other stored capture.
			n := total / 2
			prefix := copyCapture(t, &limitSource{src: openStream(t, qsnd), left: n}, capture.FormatQSND)
			truncated, err := Replay(run.cfg.Config, openStream(t, prefix))
			if err != nil {
				t.Fatal(err)
			}
			if truncated.Telescope.Total != n {
				t.Fatalf("truncated baseline captured %d, want %d", truncated.Telescope.Total, n)
			}

			for _, workers := range []int{1, 2, 8} {
				cfg := run.cfg
				cfg.Workers = workers

				check := func(src string, mid *StreamCheckpoint, final *streamRun) {
					t.Helper()
					if mid == nil || mid.Position() != n {
						t.Fatalf("%s/workers=%d: mid checkpoint at %v, want %d", src, workers, mid, n)
					}
					label := fmt.Sprintf("%s/workers=%d/mid", src, workers)
					expectSameAnalysis(t, label, truncated, mid.Analysis())
					label = fmt.Sprintf("%s/workers=%d/final", src, workers)
					expectSameAnalysis(t, label, direct, final.Analysis())
				}

				// Live: the generator's sequential merger drives Offer.
				s, gen, err := newStreamer(cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				var mid *StreamCheckpoint
				var captured uint64
				gen.Feeds(1, true)[0].Run(func(p *telescope.Packet) {
					if s.Offer(p) {
						if captured++; captured == n {
							mid = s.Checkpoint()
						}
					}
				})
				check("live", mid, &streamRun{StreamCheckpoint: s.Close()})

				for _, in := range []struct {
					name string
					data []byte
				}{{"qsnd", qsnd}, {"pcap", pcapData}} {
					mid = nil
					rsrc, err := capture.NewSource(bytes.NewReader(in.data))
					if err != nil {
						t.Fatal(err)
					}
					final, err := streamReplay(cfg, rsrc, n, func(c *StreamCheckpoint) {
						if mid == nil {
							mid = c
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					check(in.name, mid, final)
				}
			}
		})
	}
}

// TestStreamCheckpointResume proves the serialized form carries the
// whole analysis state: for every golden built-in, stream the first
// half of the recorded month, Encode the checkpoint, decode it into a
// fresh Streamer (fresh substrate, re-prepared ground truth), drive
// the remaining records through a skipping source, and the resumed run's
// final Analysis must be bit-identical to the batch run of the whole
// stream. An immediate re-checkpoint of the resumed streamer must also
// re-encode byte-for-byte — the codec round-trip at full fidelity.
func TestStreamCheckpointResume(t *testing.T) {
	for _, run := range streamGoldenConfigs(t, 2) {
		run := run
		t.Run(run.name, func(t *testing.T) {
			var trace bytes.Buffer
			w := capture.NewSink(&trace, capture.FormatQSND)
			recordCfg := run.cfg.Config
			recordCfg.Workers, recordCfg.Trace = 4, w
			direct, err := Run(recordCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			qsnd := trace.Bytes()
			n := direct.Telescope.Total / 2

			src, err := capture.NewSource(bytes.NewReader(qsnd))
			if err != nil {
				t.Fatal(err)
			}
			half, err := streamReplay(run.cfg, &limitSource{src: src, left: n}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if half.Position() != n {
				t.Fatalf("half stream stopped at %d, want %d", half.Position(), n)
			}
			data := half.Encode()

			resumed, err := ResumeStreamer(run.cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			re := resumed.Checkpoint()
			if got := re.Position(); got != n {
				t.Fatalf("resumed position %d, want %d", got, n)
			}
			// Codec round-trip: re-encoding the resumed state must
			// reproduce the input image byte-for-byte.
			if re := re.Encode(); !bytes.Equal(data, re) {
				t.Errorf("re-encoded checkpoint differs: %d vs %d bytes (or content)", len(data), len(re))
			}

			rest, err := capture.NewSource(bytes.NewReader(qsnd))
			if err != nil {
				t.Fatal(err)
			}
			tail := &skipSource{src: rest, skip: n}
			for {
				p, err := tail.Next()
				if err != nil {
					break
				}
				resumed.Offer(p)
			}
			expectSameAnalysis(t, "resumed final", direct, resumed.Close().Analysis())
		})
	}
}

// TestStreamCheckpointRepeatable pins the frozen-view contract: one
// checkpoint's Analysis must not be disturbed by later ingest on the
// streamer, and calling Analysis twice on the same checkpoint must
// agree byte-for-byte (each reduction decodes the checkpoint's image).
func TestStreamCheckpointRepeatable(t *testing.T) {
	runs := streamGoldenConfigs(t, 2)
	cfg := runs[1].cfg // one flood built-in is plenty
	s, gen, err := newStreamer(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mid *StreamCheckpoint
	var captured uint64
	var early string
	gen.Feeds(1, true)[0].Run(func(p *telescope.Packet) {
		if s.Offer(p) {
			if captured++; captured == 1000 {
				mid = s.Checkpoint()
				early = mid.Analysis().Headline()
			}
		}
	})
	s.Close()
	if mid == nil {
		t.Fatalf("stream shorter than 1000 captured packets (%d)", captured)
	}
	if got := mid.Analysis().Headline(); got != early {
		t.Errorf("checkpoint Analysis changed after further ingest:\n--- before ---\n%s\n--- after ---\n%s", early, got)
	}
}
