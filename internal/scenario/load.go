package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode"
)

// Load parses a JSON scenario spec and validates it. Unknown fields and
// repeated keys are errors: a typoed or doubled knob must fail loudly,
// not silently keep its default or its last value. Load never panics on
// malformed input (FuzzLoad).
func Load(data []byte) (*Scenario, error) {
	if err := checkKeys(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var tail any
	if err := dec.Decode(&tail); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("scenario: trailing data after spec document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// checkKeys requires data to open with a JSON object and walks its
// first document, rejecting a key repeated within one object. Keys are
// compared case-insensitively, the way encoding/json matches them to
// fields, where the last of two spellings would silently win. Syntax
// errors past the first token are left for the decoder to report.
func checkKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return errors.New("scenario: spec is not a JSON object (scenario specs are JSON)")
	}
	// One frame per open container; keys is nil in an array.
	type frame struct {
		keys    map[string]string // folded key → its first spelling
		wantKey bool
	}
	stack := []frame{{keys: map[string]string{}, wantKey: true}}
	for len(stack) > 0 {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		top := &stack[len(stack)-1]
		if top.keys != nil && top.wantKey {
			key, ok := tok.(string)
			if !ok { // '}'
				stack = stack[:len(stack)-1]
				continue
			}
			folded := strings.Map(foldRune, key)
			if first, dup := top.keys[folded]; dup {
				if first != key {
					return fmt.Errorf("scenario: duplicate key %q (keys match case-insensitively: %q came first)", key, first)
				}
				return fmt.Errorf("scenario: duplicate key %q", key)
			}
			top.keys[folded] = key
			top.wantKey = false
			continue
		}
		if top.keys != nil {
			top.wantKey = true // this token is the key's value
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{keys: map[string]string{}, wantKey: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// foldRune maps r to the smallest rune of its case-folding orbit, the
// fold encoding/json applies when it matches a key to a field name.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// LoadFile reads and parses a JSON spec file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
