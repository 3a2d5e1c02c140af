package quicsand

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/dissect"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// Metamorphic relations (ROADMAP item 18): what must hold for any input,
// with no expected value to maintain.

// metamorphicRuns records each built-in once through Config.Trace and
// analyses it six ways: simulated, replayed, and a streamed replay's
// final StreamCheckpoint.Analysis(), at workers 1 and 2. per is called
// once per built-in with its name and trace, and the check it returns
// once per analysis.
func metamorphicRuns(t *testing.T, per func(name string, trace []byte) func(label string, a *Analysis)) {
	t.Helper()
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
		check := per(g.name, trace.Bytes())
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
				check(label, a)
			}
		}
	}
}

// TestSweepCountsEverySession is relation R0: at the sessionizer's own
// 5-minute timeout, Figure 4's sweep predicts exactly the QUIC sessions
// the pipeline emitted. The sweep counts sources and gaps; the sessions
// of a streamed run come back from its checkpoint's session log, which
// writes each session's answers, so this ties the log's count to the
// sweep from outside the codec. Every built-in, at workers 1 and 2,
// simulated, replayed and streamed.
func TestSweepCountsEverySession(t *testing.T) {
	metamorphicRuns(t, func(string, []byte) func(string, *Analysis) {
		return func(label string, a *Analysis) {
			if got, want := a.Sweep.Sessions(5), uint64(len(a.QUICSessions)); got != want {
				t.Errorf("%s: Sweep.Sessions(5) = %d, %d QUIC sessions emitted", label, got, want)
			}
		}
	})
}

// TestSweepIsSessionization is relation R4: Figure 4 is real
// sessionization. For every timeout m of 1 to 60 minutes,
// Sweep.Sessions(m) equals the number of sessions a Sessionizer with
// that timeout emits over the run's sanitised QUIC packets: the captured
// UDP/443 candidates from non-research sources that dissect, as
// Config.Trace recorded them. The pipeline sessionizes at 5 minutes
// only; its sweep holds the gaps inside those sessions and derives the
// sources and the gaps between them from the sessions at reduce time, so
// this holds that derivation to sessionization run from outside. Every
// built-in, at workers 1 and 2, simulated, replayed and streamed.
func TestSweepIsSessionization(t *testing.T) {
	bent := false // some run's sessions depend on the timeout
	metamorphicRuns(t, func(name string, trace []byte) func(string, *Analysis) {
		var want [61]uint64
		var pkts []telescope.Packet
		return func(label string, a *Analysis) {
			if pkts == nil {
				pkts = sanitisedQUIC(t, a, trace)
				for m := 1; m <= 60; m++ {
					sz := sessions.NewSessionizer(nil)
					sz.Timeout = time.Duration(m) * time.Minute
					for i := range pkts {
						sz.Observe(&pkts[i], nil)
					}
					sz.Flush()
					want[m] = sz.Metrics.Emitted
				}
			}
			for m := 1; m <= 60; m++ {
				if got := a.Sweep.Sessions(m); got != want[m] {
					t.Errorf("%s: Sweep.Sessions(%d) = %d, a %d-minute sessionizer emits %d", label, m, got, m, want[m])
					return
				}
			}
			bent = bent || want[1] > want[60]
		}
	})
	if !bent {
		t.Error("no built-in has a gap between 1 and 60 minutes: the relation checks no gap")
	}
}

// sanitisedQUIC reads trace back and keeps what a shard sessionizes as
// QUIC, without payloads: the UDP/443 candidates from non-research
// sources (a's Internet tells which) whose payload dissects.
func sanitisedQUIC(t *testing.T, a *Analysis, trace []byte) []telescope.Packet {
	t.Helper()
	src, err := capture.NewSource(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	dis := dissect.NewDissector()
	var out []telescope.Packet
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if a.Internet.IsResearchSource(p.Src) || p.Proto != telescope.ProtoUDP || !p.IsQUICCandidate() {
			continue
		}
		if p.Payload != nil {
			if _, err := dis.DissectPacket(p); err != nil {
				continue
			}
		}
		q := *p
		q.Payload = nil
		out = append(out, q)
	}
}
