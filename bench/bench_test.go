package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricJSON            `json:"end_to_end"`
	PerLayer  []metricJSON            `json:"per_layer"`
}

type metricJSON struct{ Name, Unit string }

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesTables keeps BENCHMARK.json and the harness's metric
// tables in step: same workloads, same metric names and units, same
// order.
func TestSpecMatchesTables(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the size table %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, size table %q", i, w.Name, workloadOrder[i])
		}
		if _, ok := sizes[w.Name]; !ok {
			t.Errorf("workload %q has no row in the size table", w.Name)
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], table %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs all four workloads at 1/50 of the real sizes, two
// repetitions each, end to end and traced: every metric BENCHMARK.json
// names must be printed exactly once per applicable workload with a
// finite value, the traced chain must agree with the program
// (trace.parity = 1), the driver line must carry exactly the listed
// names, and the emitted trace must parse.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	o := options{seed: 7, seconds: 0, minReps: 2, setups: 1, shrink: 50, outDir: t.TempDir()}
	digests := map[string]string{}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			pass, defs, listed := runEndToEnd, endToEnd, spec.EndToEnd
			if traced {
				pass, defs, listed = runTraced, perLayer, spec.PerLayer
			}
			res, err := pass(name, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 2 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d: %v", name, traced, res.Attempted, res.Failed, res.Failures)
			}
			digests[name] = res.Digest

			var buf bytes.Buffer
			res.print(&buf)
			printed := map[string]int{}
			for _, line := range strings.Split(buf.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 4 || f[0] == "#" {
					continue
				}
				if f[0] != name {
					t.Errorf("line %q: workload field is not %q", line, name)
				}
				if v, err := strconv.ParseFloat(f[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("line %q: value is not a finite number", line)
				}
				printed[f[1]]++
			}
			for _, d := range defs {
				want := 0
				if d.appliesTo(name) {
					want = 1
				}
				if printed[d.name] != want {
					t.Errorf("%s: %s printed %d times, want %d", name, d.name, printed[d.name], want)
				}
			}

			line := res.driverLine()
			if len(line.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: driver line has %d metrics, BENCHMARK.json %d", name, traced, len(line.Metrics), len(listed))
			}
			for _, m := range listed {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: driver line lacks %s", name, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range listed {
					if line.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", name, m.Name, line.Metrics[m.Name].Value)
					}
				}
				continue
			}

			if res.Metrics["trace.parity"].Value != 1 {
				t.Errorf("%s: trace.parity = %v", name, res.Metrics["trace.parity"].Value)
			}
			if res.Metrics["sessions.budget_evicted"].Value != 0 {
				t.Errorf("%s: sessions.budget_evicted = %v", name, res.Metrics["sessions.budget_evicted"].Value)
			}
			data, err := os.ReadFile(filepath.Join(o.outDir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s: trace does not parse: %v", name, err)
			}
			if len(doc.TraceEvents) < 10 || doc.TraceEvents[0].Name != name {
				t.Errorf("%s: trace has %d events, first %q", name, len(doc.TraceEvents), doc.TraceEvents[0].Name)
			}
		}
	}
	if digests[simPaper] != digests[replayQSND] {
		t.Errorf("replay ≡ live: %s renders %s, %s renders %s", simPaper, digests[simPaper], replayQSND, digests[replayQSND])
	}
	if digests[replayPcap] != digests[streamQSND] {
		t.Errorf("stream ≡ batch: %s renders %s, %s renders %s", replayPcap, digests[replayPcap], streamQSND, digests[streamQSND])
	}
}
