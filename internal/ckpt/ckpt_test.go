package ckpt

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// field is one Writer field type with its Reader twin: write appends a
// value, read consumes it and reports whether it came back equal.
type field struct {
	name  string
	write func(w *Writer)
	read  func(r *Reader) bool
}

func u64(v uint64) field {
	return field{"U64", func(w *Writer) { w.U64(v) }, func(r *Reader) bool { return r.U64() == v }}
}

func i64(v int64) field {
	return field{"I64", func(w *Writer) { w.I64(v) }, func(r *Reader) bool { return r.I64() == v }}
}

func f64(v float64) field {
	return field{"F64", func(w *Writer) { w.F64(v) }, func(r *Reader) bool {
		return math.Float64bits(r.F64()) == math.Float64bits(v)
	}}
}

func count(v, max int) field {
	return field{"Int", func(w *Writer) { w.U64(uint64(v)) }, func(r *Reader) bool { return r.Int(max) == v }}
}

func bytes8(v []byte) field {
	return field{"Bytes8", func(w *Writer) { w.Bytes8(v) }, func(r *Reader) bool {
		return bytes.Equal(r.Bytes8(len(v)), v)
	}}
}

func str(v string) field {
	return field{"String", func(w *Writer) { w.String(v) }, func(r *Reader) bool { return r.String(len(v)) == v }}
}

func boolean(v bool) field {
	return field{"Bool", func(w *Writer) { w.Bool(v) }, func(r *Reader) bool { return r.Bool() == v }}
}

func raw(v []byte) field {
	return field{"Raw", func(w *Writer) { w.Raw(v) }, func(r *Reader) bool {
		r.Expect(v, "tag")
		return r.Err() == nil
	}}
}

// allFields covers every Writer method at its boundary values.
func allFields() []field {
	return []field{
		raw([]byte("QCKP")),
		u64(0), u64(127), u64(128), u64(math.MaxUint64),
		i64(0), i64(-1), i64(math.MinInt64), i64(math.MaxInt64),
		f64(0), f64(-0.0), f64(0.05), f64(math.Inf(-1)), f64(math.NaN()),
		count(0, 0), count(300, 300), count(1<<26, 1<<26),
		bytes8(nil), bytes8([]byte{0}), bytes8(bytes.Repeat([]byte{0xff, 0x80}, 100)),
		str(""), str("handshake-flood-qfam"), str("ü\x00"),
		boolean(false), boolean(true),
	}
}

func encode(fields []field) []byte {
	w := &Writer{}
	for _, f := range fields {
		f.write(w)
	}
	return w.Bytes()
}

// TestRoundTrip: every field type, alone and in sequence, reads back
// the value written, consumes exactly its own bytes, and leaves no
// error; NewWriter appends after an existing prefix without disturbing
// it.
func TestRoundTrip(t *testing.T) {
	fields := allFields()
	for i, f := range fields {
		buf := encode([]field{f})
		r := NewReader(buf)
		if !f.read(r) || r.Err() != nil || r.Remaining() != 0 || r.off != len(buf) {
			t.Errorf("field %d (%s): round-trip failed: err=%v remaining=%d", i, f.name, r.Err(), r.Remaining())
		}
	}

	buf := encode(fields)
	r := NewReader(buf)
	for i, f := range fields {
		if !f.read(r) {
			t.Fatalf("field %d (%s) in sequence: wrong value (err=%v)", i, f.name, r.Err())
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("sequence: err=%v, %d bytes left", r.Err(), r.Remaining())
	}

	prefix := []byte("log-so-far")
	w := NewWriter(append([]byte(nil), prefix...))
	w.U64(300)
	if got := w.Bytes(); !bytes.HasPrefix(got, prefix) || len(got) != len(prefix)+2 {
		t.Errorf("NewWriter over a prefix produced % x", got)
	}
}

// wantError asserts a decode failed with an offset-annotated *Error
// inside the input, and that the failure is sticky.
func wantError(t *testing.T, label string, r *Reader, size int) {
	t.Helper()
	err := r.Err()
	if err == nil {
		t.Errorf("%s: malformed input accepted", label)
		return
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Errorf("%s: error %T is not *ckpt.Error: %v", label, err, err)
		return
	}
	if ce.Offset < 0 || ce.Offset > size {
		t.Errorf("%s: error offset %d outside the %d-byte input", label, ce.Offset, size)
	}
	if !strings.Contains(err.Error(), "ckpt: offset 0x") {
		t.Errorf("%s: error text carries no offset: %v", label, err)
	}
	if r.U64(); r.Err() != err {
		t.Errorf("%s: error did not stick: now %v", label, r.Err())
	}
}

// TestTruncation: every proper prefix of every encoded field — and of
// the whole sequence — fails with an offset-annotated error; nothing
// panics, nothing is silently accepted.
func TestTruncation(t *testing.T) {
	for _, f := range allFields() {
		buf := encode([]field{f})
		for cut := 0; cut < len(buf); cut++ {
			r := NewReader(buf[:cut])
			f.read(r)
			wantError(t, f.name+" truncated", r, cut)
		}
	}

	fields := allFields()
	buf := encode(fields)
	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(buf[:cut])
		for _, f := range fields {
			f.read(r)
		}
		wantError(t, "sequence truncated", r, cut)
	}
}

// TestMalformed: the encodings a truncation cannot produce.
func TestMalformed(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0xff}, 10), 0x01) // 11-byte varint: > 64 bits
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"U64 over-long varint", overlong, func(r *Reader) { r.U64() }},
		{"I64 over-long varint", overlong, func(r *Reader) { r.I64() }},
		{"Int over-long varint", overlong, func(r *Reader) { r.Int(math.MaxInt) }},
		{"Bytes8 over-long length", overlong, func(r *Reader) { r.Bytes8(math.MaxInt) }},
		{"Int above limit", encode([]field{u64(301)}), func(r *Reader) { r.Int(300) }},
		{"Bytes8 length above limit", encode([]field{bytes8(make([]byte, 9))}), func(r *Reader) { r.Bytes8(8) }},
		{"String length above input", []byte{200, 'a'}, func(r *Reader) { _ = r.String(255) }},
		{"Bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"Expect mismatch", []byte("QCKX"), func(r *Reader) { r.Expect([]byte("QCKP"), "magic") }},
		{"Raw negative", []byte{1, 2}, func(r *Reader) { r.Raw(-1) }},
		{"Errorf", []byte{1}, func(r *Reader) { r.U64(); r.Errorf("shard packet counts sum to %d", 3) }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(r)
		wantError(t, c.name, r, len(c.data))
	}

	// A failed Expect rewinds, so the reported offset names the tag's
	// first byte, not the byte after it.
	r := NewReader([]byte("xxQCKX"))
	r.Raw(2)
	r.Expect([]byte("QCKP"), "magic")
	var ce *Error
	if !errors.As(r.Err(), &ce) || ce.Offset != 2 {
		t.Errorf("Expect mismatch reported at %v, want offset 2", r.Err())
	}
}
