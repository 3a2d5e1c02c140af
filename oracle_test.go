package quicsand

import (
	"bytes"
	"fmt"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
)

// TestOracle is the differential-validation matrix: every built-in
// scenario's analysis must satisfy the analytic oracle's predictions —
// exact counters with zero tolerance, bounded counters inside their
// tolerance-free intervals — for workers ∈ {1, 2, 8}, both live and
// replayed from a recorded checkpoint. One Expectation per scenario
// serves all six runs: the oracle is worker- and mode-independent by
// construction, so any disagreement isolates a pipeline defect (or an
// unlearned collision class), never an oracle recomputation artifact.
func TestOracle(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("quic.example.net", 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range goldenRuns {
		run := run
		t.Run(run.name, func(t *testing.T) {
			sc, err := scenario.Builtin(run.name)
			if err != nil {
				t.Fatal(err)
			}
			base := Config{
				Seed: 97, Scale: run.scale, ResearchThin: 1 << 14,
				Identity: id, Scenario: sc,
			}
			exp, err := Expect(base)
			if err != nil {
				t.Fatal(err)
			}
			if len(exp.Collisions) != 0 {
				t.Fatalf("built-in scenario has cross-role collisions: %v", exp.Collisions)
			}
			if exp.QUICEvents == 0 && exp.ScanBots == 0 && exp.MisconfScheduled == 0 {
				t.Fatal("empty expectation")
			}

			// Record one checkpoint for the replay half of the matrix.
			var trace bytes.Buffer
			w := telescope.NewWriter(&trace)
			recCfg := base
			recCfg.Workers = 4
			recCfg.Trace = w
			if _, err := Run(recCfg); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2, 8} {
				cfg := base
				cfg.Workers = workers

				live, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertOracle(t, fmt.Sprintf("live/workers=%d", workers), exp, live)

				src, err := capture.NewSource(bytes.NewReader(trace.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := Replay(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				assertOracle(t, fmt.Sprintf("replay/workers=%d", workers), exp, replayed)
			}
		})
	}
}

// assertOracle evaluates the oracle against one analysis and fails the
// test on any violation, printing the full report for context.
func assertOracle(t *testing.T, label string, exp *oracle.Expectation, a *Analysis) {
	t.Helper()
	obs := a.OracleObserved()
	results := oracle.Evaluate(exp, obs)
	exactChecks := 0
	for _, r := range results {
		if r.Exact {
			exactChecks++
		}
		if !r.OK {
			t.Errorf("%s: %s: expected %s, observed %s", label, r.Name, r.Want, r.Got)
		}
	}
	if exactChecks == 0 {
		t.Errorf("%s: no exact checks ran", label)
	}
	if t.Failed() {
		t.Logf("%s:\n%s", label, oracle.Report(exp, results))
	}
}

// TestOracleModerateScale validates the oracle against the shared
// moderate-scale paper run (scale 0.05, nil Scenario — the hard-coded
// schedule path): ~50× denser than the matrix fixtures, so bound
// errors that only appear when events crowd each other surface here.
func TestOracleModerateScale(t *testing.T) {
	a := pipeline(t)
	exp, err := Expect(a.Config)
	if err != nil {
		t.Fatal(err)
	}
	assertOracle(t, "paper-0.05", exp, a)
}

// lowestResponder returns the lowest observed responder address that
// satisfies ok; it fails the test when none qualifies.
func lowestResponder(t *testing.T, o *oracle.Observed, ok func(netmodel.Addr) bool) netmodel.Addr {
	t.Helper()
	var best netmodel.Addr
	found := false
	for a := range o.Responders {
		if ok(a) && (!found || a < best) {
			best, found = a, true
		}
	}
	if !found {
		t.Fatal("no responder qualifies for this tamper case")
	}
	return best
}

// TestOracleDetectsDivergence guards the oracle's teeth: an Observed
// doctored in any single dimension must violate at least one check —
// otherwise the matrix above is vacuous.
func TestOracleDetectsDivergence(t *testing.T) {
	sc, err := scenario.Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 97, Scale: 0.002, ResearchThin: 1 << 14, Workers: 2, Scenario: sc}
	exp, err := Expect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := a.OracleObserved()
	if n := len(oracle.Check(exp, obs)); n != 0 {
		t.Fatalf("clean run violates %d checks", n)
	}

	// The responders the tamper cases doctor, picked by address so every
	// run doctors the same ones whatever the map order.
	victim := lowestResponder(t, obs, func(a netmodel.Addr) bool { return exp.Victims[a] != nil })
	misconf := lowestResponder(t, obs, func(a netmodel.Addr) bool { return exp.Victims[a] == nil && exp.Misconf[a] != nil })
	clean := lowestResponder(t, obs, func(a netmodel.Addr) bool { return exp.Victims[a] != nil && !exp.Victims[a].AnyRetry })

	tamper := []struct {
		name string
		mut  func(o *oracle.Observed)
	}{
		{"tcp-icmp", func(o *oracle.Observed) { o.TCPICMP++ }},
		{"research", func(o *oracle.Observed) { o.ResearchPackets += 1 << 20 }},
		{"non-quic", func(o *oracle.Observed) { o.NonQUIC = 3 }},
		{"distinct-sources", func(o *oracle.Observed) { o.DistinctQUICSources-- }},
		{"mixed", func(o *oracle.Observed) { o.MixedSessions = 1 }},
		{"responder-volume", func(o *oracle.Observed) {
			o.Responders[victim].Packets = exp.Victims[victim].PacketRange.Max + 1
		}},
		{"misconf-volume", func(o *oracle.Observed) {
			// Sub-threshold backscatter from a scheduled misconfigured
			// responder is bounded by a range, not pinned: step past it.
			o.Responders[misconf].Packets = exp.Misconf[misconf].Packets.Max + 1
		}},
		{"retry-from-clean-victim", func(o *oracle.Observed) { o.Responders[clean].RetryPackets = 1 }},
		{"attack-flood", func(o *oracle.Observed) {
			for i := 0; i < 100000; i++ {
				o.QUICAttacks = append(o.QUICAttacks, o.QUICAttacks[0])
			}
		}},
		{"foreign-responder", func(o *oracle.Observed) {
			o.Responders[0xdeadbeef] = &oracle.ResponderObs{Packets: 1}
		}},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			obs := a.OracleObserved() // fresh projection per tampering
			tc.mut(obs)
			if len(oracle.Check(exp, obs)) == 0 {
				t.Errorf("tampered observation (%s) passed the oracle", tc.name)
			}
		})
	}
}
