// Scenarios: drive the pipeline with declarative workloads instead of
// the hard-coded paper month (internal/scenario, DESIGN.md §11). The
// walkthrough runs a built-in scenario, contrasts it with its
// Retry-mitigated counterpart, then compiles a custom spec authored
// inline — the same JSON container `cmd/quicsand -scenario` loads from
// a file.
package main

import (
	"fmt"
	"log"

	"quicsand"
	"quicsand/internal/scenario"
)

// customSpec is a small two-phase workload: an escalating QUIC flood
// against census-unknown content hosts over a background scan wave.
const customSpec = `{
  "name": "escalating-unknowns",
  "description": "Ramp-shaped QUIC floods on census-unknown hosts over a draft-29 scan wave",
  "phases": [
    {
      "kind": "scan",
      "sources": 2000,
      "versions": [{"version": "draft-29", "share": 0.7}, {"version": "v1", "share": 0.3}],
      "diurnal": true
    },
    {
      "kind": "flood",
      "label": "ramp",
      "vector": "quic",
      "attacks": 800,
      "scid_policy": "fresh",
      "amplification": 2.0,
      "victims": {"org": "unknown", "size": 90, "skew": 1.3},
      "rate": {"base_pps": 0.3, "peak_pkts": 180, "shape": "ramp"}
    }
  ]
}`

func run(sc *scenario.Scenario) *quicsand.Analysis {
	a, err := quicsand.Run(quicsand.Config{
		Seed: 42, Scale: 0.01, SkipResearch: true, Scenario: sc,
	})
	if err != nil {
		log.Fatal(err)
	}
	return a
}

func main() {
	fmt.Println("built-in scenarios:")
	for _, line := range scenario.Describe() {
		fmt.Println(" ", line)
	}

	// 1. The un-mitigated handshake-flooding baseline vs. the same
	// pressure behind stateless Retry challenges: the message mix and
	// amplification collapse is measured from the packet stream.
	for _, name := range []string{"handshake-flood-qfam", "retry-mitigated-flood"} {
		sc, err := scenario.Builtin(name)
		if err != nil {
			log.Fatal(err)
		}
		a := run(sc)
		ini, hs, other := a.MessageMix()
		fmt.Printf("\n%s:\n  %d QUIC attacks, message mix Initial %.0f%% / Handshake %.0f%% / other %.0f%%\n",
			name, len(a.QUICDetector.Attacks), ini, hs, other)
	}

	// 2. A custom spec: Load validates (unknown knobs, NaN rates and
	// out-of-month windows are errors), Run compiles and analyzes.
	sc, err := scenario.Load([]byte(customSpec))
	if err != nil {
		log.Fatal(err)
	}
	a := run(sc)
	fmt.Printf("\n%s:\n", sc.Name)
	fmt.Println(a.ScenarioInfo())
	fmt.Println(a.Headline())
}
