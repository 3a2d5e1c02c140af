// Package strictjson decodes the JSON documents people write by hand —
// scenario specs and detector configs — so that a typoed or doubled
// knob fails loudly instead of silently keeping its default or its last
// value.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
)

var errNotObject = errors.New("not a JSON object")

// Decode decodes data, which must hold exactly one JSON object, into v.
// Unknown fields, a key repeated within one object and trailing data
// are errors. Keys are compared case-insensitively, the way
// encoding/json matches them to fields, where the last of two spellings
// would silently win. Errors start with "prefix: "; doc names the
// document in them ("spec", "config").
func Decode(data []byte, v any, prefix, doc string) error {
	if err := checkKeys(data); err == errNotObject {
		return fmt.Errorf("%s: %s is not a JSON object (%s %ss are JSON)", prefix, doc, prefix, doc)
	} else if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	if err := dec.Decode(new(any)); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%s: trailing data after %s document", prefix, doc)
	}
	return nil
}

// checkKeys requires data to open with a JSON object and walks its
// first document, rejecting a key repeated within one object. Syntax
// errors past the first token are left for the decoder to report.
func checkKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return errNotObject
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
					return fmt.Errorf("duplicate key %q (keys match case-insensitively: %q came first)", key, first)
				}
				return fmt.Errorf("duplicate key %q", key)
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
