package quicsand

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/correlate"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// Metamorphic relations (ROADMAP item 18): what must hold for any input,
// with no expected value to maintain.

// metamorphicRuns records each built-in once through Config.Trace and
// analyses the recording six ways: simulated, replayed, and a streamed
// replay's final StreamCheckpoint.Analysis(), at workers 1 and 2. With a
// non-nil rewrite, the replays read the recording as rewriteTrace maps
// it, and the simulated runs, which cannot, are left out. per is called
// once per built-in with its name, its recording and the recording run's
// Analysis, and the check it returns once per analysis.
func metamorphicRuns(t *testing.T, rewrite func(*telescope.Packet) bool, per func(name string, trace []byte, recorded *Analysis) func(label string, a *Analysis)) {
	t.Helper()
	id := goldenIdentity(t)
	for _, g := range goldenRuns {
		base := goldenConfig(g.name, g.scale, id, t)
		var trace bytes.Buffer
		sink := capture.NewSink(&trace, capture.FormatQSND)
		rec := base
		rec.Trace = sink
		recorded, err := Run(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		check := per(g.name, trace.Bytes(), recorded)
		input := trace.Bytes()
		if rewrite != nil {
			input = rewriteTrace(t, input, rewrite)
		}
		for _, workers := range []int{1, 2} {
			cfg := base
			cfg.Workers = workers
			replay := func(streamed bool) (*Analysis, error) {
				src, err := capture.NewSource(bytes.NewReader(input))
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
				if rewrite != nil && run.mode == "simulated" {
					continue
				}
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

// eachPacket reads a QSND trace and hands fn each of its packets, which
// fn may keep only by copying.
func eachPacket(t *testing.T, trace []byte, fn func(*telescope.Packet)) {
	t.Helper()
	src, err := capture.NewSource(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		fn(p)
	}
}

// rewriteTrace reads a QSND trace and writes it again as QSND, passing
// a copy of each packet through rewrite first: rewrite may change the
// copy, and drops it by returning false.
func rewriteTrace(t *testing.T, trace []byte, rewrite func(*telescope.Packet) bool) []byte {
	t.Helper()
	var out bytes.Buffer
	sink := capture.NewSink(&out, capture.FormatQSND)
	eachPacket(t, trace, func(p *telescope.Packet) {
		if q := *p; rewrite(&q) {
			sink.Capture(&q)
		}
	})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSweepCountsEverySession is relation R0: at the sessionizer's own
// 5-minute timeout, Figure 4's sweep predicts exactly the QUIC sessions
// the pipeline emitted. The sweep counts sources and gaps; the sessions
// of a streamed run come back from its checkpoint's session log, which
// writes each session's answers, so this ties the log's count to the
// sweep from outside the codec. Every built-in, at workers 1 and 2,
// simulated, replayed and streamed.
func TestSweepCountsEverySession(t *testing.T) {
	metamorphicRuns(t, nil, func(string, []byte, *Analysis) func(string, *Analysis) {
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
	metamorphicRuns(t, nil, func(_ string, trace []byte, _ *Analysis) func(string, *Analysis) {
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
	dis := dissect.NewDissector()
	var out []telescope.Packet
	eachPacket(t, trace, func(p *telescope.Packet) {
		if a.Internet.IsResearchSource(p.Src) || p.Proto != telescope.ProtoUDP || !p.IsQUICCandidate() {
			return
		}
		if p.Payload != nil {
			if _, err := dis.DissectPacket(p); err != nil {
				return
			}
		}
		q := *p
		q.Payload = nil
		out = append(out, q)
	})
	return out
}

// TestShiftInTimeShiftsEveryAnswer is relation R1: moving every packet
// of a recording by one whole number of minutes moves every QUIC
// session, QUIC attack and TCP/ICMP attack by that much and changes
// nothing else of them, of Figure 4's sweep or of Figure 8's classes.
// Moore's per-minute slots sit on the epoch-minute grid (DESIGN.md §5),
// which such a shift keeps; the hourly figures bin by the hour of April
// 2021 and may change. +60 s and −1 day, every built-in, replayed and
// streamed at workers 1 and 2.
func TestShiftInTimeShiftsEveryAnswer(t *testing.T) {
	attacks := 0
	for _, k := range []telescope.Timestamp{60_000, -24 * 60 * 60_000} {
		metamorphicRuns(t, func(p *telescope.Packet) bool { p.TS += k; return true },
			func(_ string, _ []byte, orig *Analysis) func(string, *Analysis) {
				return func(label string, a *Analysis) {
					label = fmt.Sprintf("%s/shift=%+dms", label, k)
					sameAfter(t, label+": QUIC session", a.QUICSessions, orig.QUICSessions, func(s *sessions.Session) *sessions.Session {
						c := *s
						c.Start, c.End = c.Start-k, c.End-k
						return &c
					})
					back := func(atk dosdetect.Attack) dosdetect.Attack {
						atk.Start, atk.End = atk.Start-k, atk.End-k
						return atk
					}
					sameAfter(t, label+": QUIC attack", a.QUICDetector.Attacks, orig.QUICDetector.Attacks, back)
					sameAfter(t, label+": TCP/ICMP attack", a.CommonDetector.Attacks, orig.CommonDetector.Attacks, back)
					sameAfter(t, label+": Figure 8 class", a.Correlation.Results, orig.Correlation.Results, func(r correlate.Result) correlate.Result {
						r.Attack = back(r.Attack)
						return r
					})
					if !reflect.DeepEqual(a.Sweep, orig.Sweep) {
						t.Errorf("%s: the timeout sweep changed", label)
					}
					attacks += len(a.QUICDetector.Attacks) + len(a.CommonDetector.Attacks)
				}
			})
	}
	t.Logf("%d attacks compared", attacks)
	if attacks == 0 {
		t.Error("no built-in has an attack: the relation checks no attack")
	}
}

// TestResearchPacketsChangeNoSanitisedAnswer is relation R2: §5.1
// sanitisation drops research scanners before any analysis, so removing
// their packets from a recording changes no sanitised answer. Only the
// telescope's totals and Figure 2, which count every captured packet,
// may change. Every built-in, replayed and streamed at workers 1 and 2.
func TestResearchPacketsChangeNoSanitisedAnswer(t *testing.T) {
	inet := netmodel.BuildInternet()
	dropped := 0
	metamorphicRuns(t, func(p *telescope.Packet) bool {
		if inet.IsResearchSource(p.Src) {
			dropped++
			return false
		}
		return true
	}, func(_ string, _ []byte, orig *Analysis) func(string, *Analysis) {
		want := sanitisedAnswers(orig)
		return func(label string, a *Analysis) {
			for what, got := range sanitisedAnswers(a) {
				if !reflect.DeepEqual(got, want[what]) {
					t.Errorf("%s: removing research packets changed %s", label, what)
				}
			}
		}
	})
	t.Logf("%d research packets removed", dropped)
	if dropped == 0 {
		t.Error("no built-in records a research packet: the relation removes nothing")
	}
}

// sanitisedAnswers lists what an analysis answers about sanitised
// traffic: all of it but the telescope's totals, Figure 2 and the run's
// own telemetry.
func sanitisedAnswers(a *Analysis) map[string]any {
	return map[string]any{
		"Figure 3":           a.HourlyType.Series,
		"the QUIC sessions":  a.QUICSessions,
		"the requests":       a.RequestSessions,
		"the responses":      a.ResponseSessions,
		"the sweep":          a.Sweep,
		"the QUIC attacks":   a.QUICDetector,
		"the TCP/ICMP ones":  a.CommonDetector,
		"Figure 8":           a.Correlation,
		"the census join":    a.census,
		"the GreyNoise join": a.ScanSources,
		"the non-QUIC count": a.NonQUIC,
	}
}

// sameAfter checks that back maps each of got onto want, in order.
func sameAfter[T any](t *testing.T, label string, got, want []T, back func(T) T) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if g := back(got[i]); !reflect.DeepEqual(g, want[i]) {
			t.Errorf("%s %d: %+v, want %+v", label, i, g, want[i])
			return
		}
	}
}

// TestThresholdsNest is relation R5: Figure 10's weights scale every
// Moore threshold together, so a response session that is an attack at
// a weight is one at every smaller weight. Attacks are compared one by
// one, keyed by victim and start, at each pair of Figure 10's weights,
// for every built-in; some built-in must lose an attack between two
// weights, or the relation would hold of any thresholds.
func TestThresholdsNest(t *testing.T) {
	type key struct {
		victim netmodel.Addr
		start  telescope.Timestamp
	}
	id := goldenIdentity(t)
	strict := false
	for _, g := range goldenRuns {
		a, err := Run(goldenConfig(g.name, g.scale, id, t))
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]map[key]bool, len(figure10Weights))
		for i, w := range figure10Weights {
			th := dosdetect.Default().Weighted(w)
			sets[i] = map[key]bool{}
			for _, s := range a.ResponseSessions {
				if th.Match(s) {
					sets[i][key{s.Src, s.Start}] = true
				}
			}
		}
		for i, lo := range figure10Weights {
			for j := i + 1; j < len(figure10Weights); j++ {
				for k := range sets[j] {
					if !sets[i][k] {
						t.Errorf("%s: the attack on %v at %d is one at w=%g but not at w=%g", g.name, k.victim, k.start, figure10Weights[j], lo)
					}
				}
				strict = strict || len(sets[j]) < len(sets[i])
			}
		}
	}
	if !strict {
		t.Error("no built-in loses an attack as the weight grows: the relation compares equal sets only")
	}
}
