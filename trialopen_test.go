package quicsand

import (
	"testing"

	"quicsand/internal/scenario"
)

// TestNoDoomedTrialOpens prices the dissector's Initial-key rule
// (DESIGN.md §4) as a program count: every built-in month's shards
// trial-open exactly the Initials that decrypt. A server reply is
// sealed with keys a passive observer cannot derive, so an opener
// lookup spent on one is wasted AES-GCM — the shards must not make it.
func TestNoDoomedTrialOpens(t *testing.T) {
	for _, name := range scenario.Builtins() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			a, err := Run(Config{Seed: 7, Scale: 0.02, Scenario: sc, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			d := a.Telemetry.Dissect
			opens := d.OpenerHits + d.OpenerMisses
			t.Logf("%s workers=%d: %d trial opens, %d decrypted", name, workers, opens, d.Decrypted)
			if opens != d.Decrypted {
				t.Errorf("%s workers=%d: %d trial opens for %d decrypted Initials", name, workers, opens, d.Decrypted)
			}
		}
	}
}
