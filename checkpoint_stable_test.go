package quicsand

import (
	"crypto/sha256"
	"testing"
)

// TestCheckpointImagesByteStable runs one stream twice and requires
// every checkpoint image of the second run to equal the first's byte for
// byte. Sweeps and Flush finish sessions in source order, so nothing an
// image holds — the emitted-session list, the common-vector detector's
// attack list, the active sessions — depends on a hash table's layout
// or its per-process seed. (A resumed streamer is another matter: its
// dissector's opener counters start over.)
func TestCheckpointImagesByteStable(t *testing.T) {
	id := goldenIdentity(t)
	for _, name := range []string{"handshake-flood-qfam", "paper-2021"} {
		t.Run(name, func(t *testing.T) {
			cfg := goldenConfig(name, 0.02, id, t)
			cfg.Workers = 2
			run := func() [][sha256.Size]byte {
				var sums [][sha256.Size]byte
				final, err := streamLive(StreamConfig{Config: cfg}, 5000, func(c *StreamCheckpoint) {
					sums = append(sums, sha256.Sum256(c.Encode()))
				})
				if err != nil {
					t.Fatal(err)
				}
				return append(sums, sha256.Sum256(final.Encode()))
			}
			first, second := run(), run()
			if len(first) != len(second) || len(first) < 10 {
				t.Fatalf("%d and %d images; want the same number, at least 10", len(first), len(second))
			}
			differ, at := 0, -1
			for i := range first {
				if first[i] != second[i] {
					if differ++; at < 0 {
						at = i
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d images differ between two runs of one stream (first at image %d)", differ, len(first), at)
			} else {
				t.Logf("%d images, all byte-equal across the two runs", len(first))
			}
		})
	}
}
