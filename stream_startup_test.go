package quicsand

import "testing"

// startupAllocBudget is the measured allocation count of a daemon
// start-up (NewStreamer then Close, no packets) at telescoped's default
// seed, scale and two workers, plus 10 %. It is what planning the month
// and wiring the shards cost: 866 objects, of which the census is ≈ 36.
// The template handshakes (≈ 2.6 k objects) are not in it — nothing on
// this path generates a packet, so nothing builds them.
const startupAllocBudget = 952

// TestStreamerStartupAllocs keeps a daemon's start-up, which shares
// planning with Replay, Expect and every checkpoint resume, paying only
// for the substrate it reads.
func TestStreamerStartupAllocs(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 2021, Scale: 0.001, Workers: 2}}
	avg := testing.AllocsPerRun(5, func() {
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	t.Logf("NewStreamer+Close: %.0f allocations (budget %d)", avg, startupAllocBudget)
	if avg > startupAllocBudget {
		t.Errorf("NewStreamer+Close allocates %.0f objects, budget %d", avg, startupAllocBudget)
	}
}
