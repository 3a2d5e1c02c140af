// Package ckpt provides the binary primitives the streaming-checkpoint
// codec is built from: an append-only Writer and a bounds-checked
// Reader over varint-framed fields. The format is deliberately dumb —
// unsigned varints, zigzag varints, IEEE float bits, length-prefixed
// byte strings — because the safety property matters more than the
// encoding: a Reader NEVER panics on malformed input. Every decode
// error is annotated with the byte offset it was detected at, so a
// truncated or bit-flipped checkpoint reports "ckpt: offset 0x1f3:
// varint overflows" instead of corrupting state or crashing the
// daemon (FuzzCheckpoint locks this in).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fields to a growing buffer. The zero value is ready
// to use.
type Writer struct {
	b []byte
}

// NewWriter returns a Writer that appends to b (which may be nil, or an
// empty slice pre-sized for the encoding to come). Bytes returns b
// extended by everything written since.
func NewWriter(b []byte) *Writer { return &Writer{b: b} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.b }

// Raw appends b verbatim (magic numbers, nested encodings).
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// I64 appends a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) { w.b = binary.AppendVarint(w.b, v) }

// F64 appends a float64 as its fixed 8-byte IEEE 754 bits.
func (w *Writer) F64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

// Bytes8 appends a length-prefixed byte string.
func (w *Writer) Bytes8(b []byte) {
	w.U64(uint64(len(b)))
	w.b = append(w.b, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Error is a decode failure pinned to the byte offset where it was
// detected.
type Error struct {
	Offset int
	Msg    string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("ckpt: offset 0x%x: %s", e.Offset, e.Msg)
}

// Reader consumes fields from a byte slice. All methods are
// bounds-checked and return an *Error (never panic) on malformed
// input; after the first error every subsequent read fails with it,
// so decoders can check once at the end of a struct.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Errorf records (and returns) a decode error at the current offset.
// The first error sticks.
func (r *Reader) Errorf(format string, args ...any) error {
	if r.err == nil {
		r.err = &Error{Offset: r.off, Msg: fmt.Sprintf(format, args...)}
	}
	return r.err
}

// Raw consumes n verbatim bytes. The returned slice aliases the input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.Errorf("need %d bytes, %d remain", n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U64 consumes an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.Errorf("truncated varint")
		} else {
			r.Errorf("varint overflows 64 bits")
		}
		return 0
	}
	r.off += n
	return v
}

// I64 consumes a zigzag varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.Errorf("truncated varint")
		} else {
			r.Errorf("varint overflows 64 bits")
		}
		return 0
	}
	r.off += n
	return v
}

// Int consumes an unsigned varint that must fit a non-negative int —
// the count/length form. max bounds the accepted value so hostile
// counts fail fast instead of driving huge allocations.
func (r *Reader) Int(max int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.Errorf("count %d exceeds limit %d", v, max)
		return 0
	}
	return int(v)
}

// F64 consumes 8 fixed bytes as a float64.
func (r *Reader) F64() float64 {
	b := r.Raw(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bytes8 consumes a length-prefixed byte string of at most max bytes.
// The returned slice aliases the input.
func (r *Reader) Bytes8(max int) []byte {
	n := r.Int(max)
	if r.err != nil {
		return nil
	}
	return r.Raw(n)
}

// String consumes a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string {
	return string(r.Bytes8(max))
}

// Bool consumes one byte as a boolean; values other than 0/1 are
// malformed (they would round-trip differently).
func (r *Reader) Bool() bool {
	b := r.Raw(1)
	if r.err != nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Errorf("bool byte 0x%x", b[0])
		return false
	}
}

// Expect consumes len(want) bytes and fails unless they match —
// magic numbers and section tags.
func (r *Reader) Expect(want []byte, what string) {
	got := r.Raw(len(want))
	if r.err != nil {
		return
	}
	if string(got) != string(want) {
		r.off -= len(want)
		r.Errorf("bad %s: got %x, want %x", what, got, want)
	}
}
