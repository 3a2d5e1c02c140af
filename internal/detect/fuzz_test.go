package detect

import (
	"testing"
)

// FuzzLoadConfig hardens the detector-config loader the way
// scenario.FuzzLoad hardens the spec loader: arbitrary bytes must
// either yield a validated configuration or a clean error — never a
// panic, and never a config that fails its own Validate (the invariant
// NewShard relies on).
func FuzzLoadConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"window":"30s","rate_pps":1.5,"min_cid_ratio":0.4,"min_packets":10}`))
	f.Add([]byte(`{"window":"5ms"}`))
	f.Add([]byte(`{"window":"-5s"}`))
	f.Add([]byte(`{"window":"banana"}`))
	f.Add([]byte(`{"rate_pps":0}`))
	f.Add([]byte(`{"rate_pps":1e309}`))
	f.Add([]byte(`{"min_packets":-3}`))
	f.Add([]byte(`{"typoed_knob":1}`))
	f.Add([]byte(`{} {"min_packets":3}`))
	f.Add([]byte("\xff\xfe{broken"))
	f.Add([]byte(`{"rate_pps":71582789}`))
	f.Add([]byte(`{"min_packets":4294967297}`))
	f.Add([]byte(`{"rate_pps": 5, "RATE_PPS": 100, "rate_pps": 7}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfig(data)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("LoadConfig accepted a config its own Validate rejects: %v\ninput: %q", verr, data)
		}
	})
}
