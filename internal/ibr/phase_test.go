package ibr

import "testing"

// TestPhaseSCIDRatio pins the unset-vs-zero contract for the SCID
// override through scheduling: an explicit scid_ratio, 0 included (never
// fresh, always pool), reaches every scheduled attack, and an unset one
// takes the policy's ratio.
func TestPhaseSCIDRatio(t *testing.T) {
	zero := 0.0
	for _, c := range []struct {
		policy string
		ratio  *float64
		want   float64
	}{
		{"", &zero, 0},
		{"fresh", &zero, 0},
		{"", nil, 0.6},
		{"mixed", nil, 0.6},
		{"fresh", nil, 0.95},
		{"pooled", nil, 0.30},
	} {
		g, err := NewEmpty(Config{Seed: 3, Scale: 1, SkipResearch: true, Identity: ibrIdentity})
		if err != nil {
			t.Fatal(err)
		}
		addPhase(t, g, "f", Phase{Kind: KindFlood, Vector: "quic", Attacks: 5,
			Victims: VictimPool{Size: 3}, SCIDPolicy: c.policy, SCIDRatio: c.ratio})
		for _, src := range g.Sources() {
			if got := src.(*floodSpec).scidRatio; got != c.want {
				t.Errorf("policy %q, scid_ratio %v: attack scheduled at %v, want %v", c.policy, c.ratio, got, c.want)
			}
		}
	}
}
