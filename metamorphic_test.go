package quicsand

import (
	"bytes"
	"fmt"
	"testing"

	"quicsand/internal/capture"
)

// Metamorphic relations (ROADMAP item 18): what must hold for any input,
// with no expected value to maintain.

// TestSweepCountsEverySession is relation R0: at the sessionizer's own
// 5-minute timeout, Figure 4's sweep predicts exactly the QUIC sessions
// the pipeline emitted. The sweep counts sources and gaps; the sessions
// of a streamed run come back from its checkpoint's session log, which
// writes each session's answers, so this ties the log's count to the
// sweep from outside the codec. Every built-in, at workers 1 and 2,
// simulated, replayed and streamed.
func TestSweepCountsEverySession(t *testing.T) {
	id := goldenIdentity(t)
	for _, g := range goldenRuns {
		base := goldenConfig(g.name, g.scale, id, t)
		var trace bytes.Buffer
		sink := capture.NewSink(&trace, capture.FormatQSND)
		rec := base
		rec.Trace = sink
		if _, err := Run(rec); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg := base
			cfg.Workers = workers
			replay := func(streamed bool) (*Analysis, error) {
				src, err := capture.NewSource(bytes.NewReader(trace.Bytes()))
				if err != nil {
					return nil, err
				}
				if !streamed {
					return Replay(cfg, src)
				}
				final, err := streamReplay(StreamConfig{Config: cfg}, src, 0, nil)
				if err != nil {
					return nil, err
				}
				return final.StreamCheckpoint.Analysis(), nil
			}
			for _, run := range []struct {
				mode string
				run  func() (*Analysis, error)
			}{
				{"simulated", func() (*Analysis, error) { return Run(cfg) }},
				{"replayed", func() (*Analysis, error) { return replay(false) }},
				{"streamed", func() (*Analysis, error) { return replay(true) }},
			} {
				label := fmt.Sprintf("%s/workers=%d/%s", g.name, workers, run.mode)
				a, err := run.run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(a.QUICSessions) == 0 {
					t.Fatalf("%s: no QUIC session", label)
				}
				if got, want := a.Sweep.Sessions(5), uint64(len(a.QUICSessions)); got != want {
					t.Errorf("%s: Sweep.Sessions(5) = %d, %d QUIC sessions emitted", label, got, want)
				}
			}
		}
	}
}
