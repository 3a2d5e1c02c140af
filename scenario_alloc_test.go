package quicsand

import (
	"runtime"
	"testing"

	"quicsand/internal/scenario"
)

// runMallocs measures one sequential run: total heap allocations and
// the packet count. Mallocs is a monotonic counter, so the measurement
// is exact, not sampling-based.
func runMallocs(t *testing.T, cfg Config) (mallocs uint64, packets uint64) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if a.Telescope.Total == 0 {
		t.Fatal("empty run")
	}
	return after.Mallocs - before.Mallocs, a.Telescope.Total
}

// marginalMallocsPerPacket isolates the steady-state (per-packet)
// allocation rate from fixed setup cost: the same configuration runs
// at two scales and the slope Δmallocs/Δpackets cancels everything
// that does not grow with the stream — census and Internet
// construction, template handshakes, figure buffers. What remains is
// exactly what PR-2 drove to near zero: per-packet and per-event work.
func marginalMallocsPerPacket(t *testing.T, cfg Config) float64 {
	t.Helper()
	lo := cfg
	lo.Scale = 0.01
	hi := cfg
	hi.Scale = 0.04
	mLo, pLo := runMallocs(t, lo)
	mHi, pHi := runMallocs(t, hi)
	if pHi <= pLo {
		t.Fatalf("scale sweep did not grow the stream: %d -> %d packets", pLo, pHi)
	}
	return float64(mHi-mLo) / float64(pHi-pLo)
}

// scenarioAllocBudget locks each built-in's steady-state rate at
// roughly 2× its measured value, so regressions surface while toolchain
// noise does not. Measured with go1.24 once sessions became values and
// planned events came from the generator's slabs; the race build is
// measured too, because CI runs this test under -race, where the
// runtime's sync.Pool drops a quarter of what is put back. The mixes
// differ per workload: payload-dense floods pay SCID-pool and
// payload-cache work per spoofed tuple, scan campaigns pay per-session
// machinery — all bounded, all far under the pre-PR-2 pipeline's ~16
// allocs/packet. versionneg-scan-campaign keeps its earlier budget: its
// crypto-heavy scans read 0.23 but 1.02 under -race.
var scenarioAllocBudget = map[string]float64{
	"paper-2021":               0.012, // measured 0.0056 (race 0.0084)
	"handshake-flood-qfam":     0.25,  // measured 0.122 (race 0.129)
	"multi-vector-burst":       0.07,  // measured 0.035 (race 0.043)
	"retry-mitigated-flood":    0.70,  // measured 0.339 (race 0.346)
	"versionneg-scan-campaign": 1.60,  // measured 0.231 (race 1.025)
}

// TestScenarioAllocRegression keeps scenario-driven runs inside the
// PR-2/PR-3 allocation envelope: compiling a scenario must only move
// work to setup time, never onto the hot path. Every built-in must
// stay inside its locked budget, and the scenario layer itself must be
// free — paper-2021 compiled through internal/scenario may not
// allocate more than the hard-coded schedule.
func TestScenarioAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement runs mid-size months")
	}
	base := Config{Seed: 7, ResearchThin: 1 << 20, Workers: 1}
	paper := marginalMallocsPerPacket(t, base)
	t.Logf("paper-2021 (hard-coded): %.4f mallocs/packet marginal", paper)
	if budget := scenarioAllocBudget["paper-2021"]; paper > budget {
		t.Errorf("hard-coded paper month: %.4f mallocs/packet exceeds its %.2f budget", paper, budget)
	}

	for _, name := range scenario.Builtins() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Scenario = sc
		got := marginalMallocsPerPacket(t, cfg)
		t.Logf("%s: %.4f mallocs/packet marginal", name, got)
		budget, ok := scenarioAllocBudget[name]
		if !ok {
			budget = 2.0 // default envelope for future built-ins
		}
		if got > budget {
			t.Errorf("%s: %.4f mallocs/packet exceeds its %.2f budget", name, got, budget)
		}
		if name == "paper-2021" && got > paper*1.2+0.02 {
			t.Errorf("scenario layer is not free: paper via scenario %.4f vs hard-coded %.4f mallocs/packet", got, paper)
		}
	}
}
