package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzLoad hardens the spec loader the way FuzzQSNDReader hardens the
// trace reader: arbitrary bytes must either yield a validated scenario
// or a clean error — never a panic, and never a scenario that fails
// its own Validate (the invariant Compile relies on).
func FuzzLoad(f *testing.F) {
	for _, name := range Builtins() {
		sc, err := Builtin(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "j", "phases": [{"kind": "misconfig", "sources": 3}]}`))
	f.Add([]byte(`{"name": "t", "phases": [{"kind": "flood", "vector": "quic", "attacks": 2, "pair": {"concurrent_share": 0.5, "sequential_share": 0.2}, "victims": {"org": "any", "size": 2}, "rate": {"base_pps": 0.5, "shape": "ramp"}}]}`))
	f.Add([]byte(`{"name": "nan", "phases": [{"kind": "scan", "sources": 1, "visits_mean": NaN}]}`))
	f.Add([]byte(`{"name": "x", "phases": [{"kind": "misconfig", "sources": 1, "Sources": 900, "tags": [[1, {"a": 2}], []]}]}`))
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
