package strictjson

import "testing"

// TestDecode pins the strict decode's rules and error texts.
func TestDecode(t *testing.T) {
	type doc struct {
		A int            `json:"a"`
		B map[string]int `json:"b"`
		C []struct {
			D int `json:"d"`
		} `json:"c"`
	}
	for _, c := range []struct{ in, err string }{
		{`{"a": 1, "b": {"x": 1, "y": 2}, "c": [{"d": 1}, {"d": 2}]}`, ""},
		{``, "t: doc is not a JSON object (t docs are JSON)"},
		{`null`, "t: doc is not a JSON object (t docs are JSON)"},
		{`[{"a": 1}]`, "t: doc is not a JSON object (t docs are JSON)"},
		{`{"a": 1, "a": 2}`, `t: duplicate key "a"`},
		{`{"a": 1, "A": 2}`, `t: duplicate key "A" (keys match case-insensitively: "a" came first)`},
		{`{"b": {"x": 1, "X": 2}}`, `t: duplicate key "X" (keys match case-insensitively: "x" came first)`},
		{`{"c": [{"d": 1, "d": 2}]}`, `t: duplicate key "d"`},
		{`{"e": 1}`, `t: json: unknown field "e"`},
		{`{"a": 1} {"a": 2}`, "t: trailing data after doc document"},
	} {
		var v doc
		switch err := Decode([]byte(c.in), &v, "t", "doc"); {
		case err == nil && c.err != "":
			t.Errorf("%s: accepted, want %q", c.in, c.err)
		case err != nil && err.Error() != c.err:
			t.Errorf("%s: got %q, want %q", c.in, err, c.err)
		}
	}
}
