package quicsand

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"quicsand/internal/detect"
	"quicsand/internal/oracle"
	"quicsand/internal/telescope"
)

// streamAlerts runs the full scenario month through the streaming
// pipeline with the given detector configuration and returns the
// complete alert stream (Close flushes every open episode).
func streamAlerts(t *testing.T, cfg Config, dcfg detect.Config) []detect.Alert {
	t.Helper()
	final, err := streamLive(StreamConfig{Config: cfg, Detect: &dcfg}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return final.Alerts
}

// TestAlertOracle validates the sliding-window detectors' alert
// stream against the ledger-derived bounds at zero tolerance: for
// every flood built-in, each alert of a checked victim must sit inside
// one of its scheduled flood clusters, and per-victim rate-alert
// counts must land in the proven [guaranteed, cap] interval —
// guaranteed clusters may not stay silent (DESIGN.md §17).
func TestAlertOracle(t *testing.T) {
	id := goldenIdentity(t)
	dcfg := detect.Default()
	for _, run := range goldenRuns {
		if run.name == "paper-2021" || run.name == "versionneg-scan-campaign" {
			continue // no QUIC flood victims scheduled at tiny scale
		}
		run := run
		t.Run(run.name, func(t *testing.T) {
			cfg := goldenConfig(run.name, run.scale, id, t)
			cfg.Workers = 2
			ae, err := ExpectAlerts(cfg, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			// Anti-vacuity of the expectation itself: the scenario must
			// schedule at least one cluster dense enough that silence
			// would be a detector bug, and at least one checked victim.
			if ae.Guaranteed == 0 || len(ae.Victims) == 0 {
				t.Fatalf("vacuous expectation: %d victims, %d guaranteed clusters",
					len(ae.Victims), ae.Guaranteed)
			}

			alerts := streamAlerts(t, cfg, dcfg)
			results := oracle.CheckAlerts(ae, alerts)
			if n := oracle.CountViolations(results); n != 0 {
				for _, r := range results {
					if !r.OK || r.Detail {
						t.Errorf("%s: want %s, got %s", r.Name, r.Want, r.Got)
					}
				}
				t.Fatalf("alert stream violates %d checks", n)
			}
			// The containment group must actually have inspected
			// victim alerts — zero inspected would pass vacuously.
			victimAlerts := 0
			for _, al := range alerts {
				if ae.Victims[al.Src] != nil {
					victimAlerts++
				}
			}
			if victimAlerts == 0 {
				t.Fatal("no victim alerts inspected (containment check vacuous)")
			}
		})
	}
}

// TestAlertOracleDetectsDivergence guards the alert oracle's teeth,
// mirroring TestOracleDetectsDivergence: a detector run with absurdly
// perturbed thresholds must violate the default-threshold expectation
// — guaranteed clusters go silent — otherwise TestAlertOracle is
// vacuous.
func TestAlertOracleDetectsDivergence(t *testing.T) {
	id := goldenIdentity(t)
	cfg := goldenConfig("handshake-flood-qfam", 0.002, id, t)
	cfg.Workers = 2
	ae, err := ExpectAlerts(cfg, detect.Default())
	if err != nil {
		t.Fatal(err)
	}
	if ae.Guaranteed == 0 {
		t.Fatal("scenario schedules no guaranteed cluster; the twin proves nothing")
	}
	deaf := detect.Default()
	deaf.RatePPS *= 1000 // RateCount ~ 30001: no window can cross it
	alerts := streamAlerts(t, cfg, deaf)
	if n := oracle.CountViolations(oracle.CheckAlerts(ae, alerts)); n == 0 {
		t.Fatal("perturbed detector satisfied the strict expectation; alert checks are vacuous")
	}
}

// TestReplayAlertsEqualsStreamReplay is the differential for the batch
// alert driver, with the push driver as its reference: for every golden
// built-in, at workers ∈ {1, 2, 8}, from the QSND checkpoint and its pcap
// export, streamed and mapped, ReplayAlerts must write the alert bytes
// streamReplay's final checkpoint holds at the same worker count, reduce
// to the direct run's Analysis, and report the same detector counters and
// the same Stream() projection; with a trace sink attached it must also
// re-checkpoint the input byte for byte.
func TestReplayAlertsEqualsStreamReplay(t *testing.T) {
	dcfg := detect.Default()
	alertBytes := func(alerts []detect.Alert) []byte {
		var buf bytes.Buffer
		if err := detect.WriteAlerts(&buf, alerts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, run := range streamGoldenConfigs(t, 4) {
		run := run
		t.Run(run.name, func(t *testing.T) {
			var trace bytes.Buffer
			w := telescope.NewWriter(&trace)
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
			inputs := []struct {
				name string
				data []byte
				path string
			}{{name: "qsnd", data: qsnd}, {name: "pcap", data: convertToPcap(t, qsnd)}}
			for i := range inputs {
				inputs[i].path = writeCapture(t, inputs[i].data)
			}

			var crossWorkers []byte
			for _, workers := range []int{1, 2, 8} {
				cfg := run.cfg
				cfg.Workers, cfg.Detect = workers, &dcfg
				for _, in := range inputs {
					ref, err := streamReplay(cfg, openStream(t, in.data), 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, refTel := alertBytes(ref.Alerts), ref.Analysis().Telemetry
					if crossWorkers == nil {
						crossWorkers = want
					} else if !bytes.Equal(want, crossWorkers) {
						t.Errorf("%s/workers=%d: reference alerts differ across inputs or worker counts", in.name, workers)
					}

					for _, mapped := range []bool{false, true} {
						// A trace tap turns batch recycling off, so each leg
						// runs with and without one.
						for _, retrace := range []bool{false, true} {
							label := fmt.Sprintf("%s/mapped=%v/workers=%d/trace=%v", in.name, mapped, workers, retrace)
							src := openStream(t, in.data)
							if mapped {
								src = openMapped(t, in.path)
							}
							rcfg := cfg
							var recheck bytes.Buffer
							rw := telescope.NewWriter(&recheck)
							if retrace {
								rcfg.Trace = rw
							}
							a, alerts, err := ReplayAlerts(rcfg, src)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if got := alertBytes(alerts); !bytes.Equal(got, want) {
								t.Errorf("%s: alerts differ from streamReplay's:\n--- want ---\n%s--- got ---\n%s", label, want, got)
							}
							expectSameAnalysis(t, label, direct, a)
							if a.Telemetry.Detect != refTel.Detect {
								t.Errorf("%s: detector counters differ:\n want %+v\n got  %+v", label, refTel.Detect, a.Telemetry.Detect)
							}
							if retrace {
								if err := rw.Flush(); err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(recheck.Bytes(), qsnd) {
									t.Errorf("%s: re-checkpoint differs from the recorded trace (%d vs %d bytes)", label, recheck.Len(), len(qsnd))
								}
							} else if got, want := a.Telemetry.Stream(), refTel.Stream(); !reflect.DeepEqual(got, want) {
								t.Errorf("%s: stream projection diverged:\n want %+v\n got  %+v", label, want, got)
							}
						}
					}
				}
			}
			if len(crossWorkers) == 0 && run.name != "paper-2021" && run.name != "versionneg-scan-campaign" {
				t.Error("flood built-in raised no alert: the comparison is vacuous")
			}
		})
	}
}
