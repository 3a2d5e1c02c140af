package scenario

import "testing"

// TestValidateWindowLimits pins the scheduler's window minimums at
// their edges: a scan window must leave room for the 600 s session
// tail (900 s), misconfig and flood windows need 300 s, and a research
// sweep, defaulted or explicit, must fit its window. Each rejection
// keeps its error text.
func TestValidateWindowLimits(t *testing.T) {
	phase := func(p string) string { return `{"name": "x", "phases": [` + p + `]}` }
	for _, c := range []struct {
		name, spec, err string // err "" = validates
	}{
		{"scan 900 s", phase(`{"kind": "scan", "sources": 5, "dur_sec": 900}`), ""},
		{"scan 899.9 s", phase(`{"kind": "scan", "sources": 5, "dur_sec": 899.9}`),
			"scenario: phase 0: scan window shorter than 900 s"},
		{"scan 900 s at month end", phase(`{"kind": "scan", "sources": 5, "start_sec": 2591100}`), ""},
		{"scan 899.9 s at month end", phase(`{"kind": "scan", "sources": 5, "start_sec": 2591100.1}`),
			"scenario: phase 0: scan window shorter than 900 s"},
		{"misconfig 300 s", phase(`{"kind": "misconfig", "sources": 5, "start_sec": 600, "dur_sec": 300}`), ""},
		{"misconfig 299.9 s", phase(`{"kind": "misconfig", "sources": 5, "start_sec": 600, "dur_sec": 299.9}`),
			"scenario: phase 0: misconfig window shorter than 300 s"},
		{"flood 300 s", phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "dur_sec": 300, "victims": {"size": 3}}`), ""},
		{"flood 299.9 s", phase(`{"kind": "flood", "vector": "quic", "attacks": 5, "dur_sec": 299.9, "victims": {"size": 3}}`),
			"scenario: phase 0: flood window shorter than 300 s"},
		{"default sweep fits", phase(`{"kind": "research-scan", "sweeps": 1, "dur_sec": 36000}`), ""},
		{"default sweep overruns", phase(`{"kind": "research-scan", "sweeps": 1, "dur_sec": 35999.9}`),
			"scenario: phase 0: sweep duration (10.0 h) exceeds the phase window"},
		{"explicit sweep fits", phase(`{"kind": "research-scan", "sweeps": 1, "sweep_hours": 2, "dur_sec": 7200}`), ""},
		{"explicit sweep overruns", phase(`{"kind": "research-scan", "sweeps": 1, "sweep_hours": 2.5, "dur_sec": 7200}`),
			"scenario: phase 0: sweep duration (2.5 h) exceeds the phase window"},
	} {
		_, err := Load([]byte(c.spec))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("%s: got error %v, want %q", c.name, err, c.err)
		}
	}
}
