package scenario

import (
	"testing"
)

// FuzzLoad hardens the spec loader the way FuzzQSNDReader hardens the
// trace reader: arbitrary bytes must either yield a validated scenario
// or a clean error — never a panic, and never a scenario that fails
// its own Validate (the invariant Compile relies on).
func FuzzLoad(f *testing.F) {
	for _, name := range Builtins() {
		f.Add([]byte(builtinSpecs[name]))
	}
	f.Add([]byte(`{"name": "j", "phases": [{"kind": "misconfig", "sources": 3}]}`))
	f.Add([]byte("name = \"t\"\n[[phases]]\nkind = \"flood\"\nvector = \"quic\"\nattacks = 2\npair = {concurrent_share = 0.5, sequential_share = 0.2}\n[phases.victims]\norg = \"any\"\nsize = 2\n[phases.rate]\nbase_pps = 0.5\nshape = \"ramp\""))
	f.Add([]byte("name = \"nan\"\n[[phases]]\nkind = \"scan\"\nsources = 1\nvisits_mean = nan"))
	f.Add([]byte("arr = [[1, 2], [3]]\nname = \"x\""))
	f.Add([]byte("= \"x\""))
	f.Add([]byte("\xff\xfe{broken"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(data)
		if err != nil {
			return
		}
		// A loaded scenario must be self-consistently valid.
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("Load accepted a scenario its own Validate rejects: %v\ninput: %q", verr, data)
		}
	})
}
