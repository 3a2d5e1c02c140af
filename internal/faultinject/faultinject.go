// Package faultinject is the deterministic fault layer behind the
// salvage-mode test matrix: it damages byte streams in precisely
// reproducible ways so every degraded-ingest path — resync scans, the
// window's transient-retry loop, torn tails — can be driven by tests,
// fuzz corpora, and the CI chaos matrix without any real broken
// hardware.
//
// All faults live on the byte plane, underneath the capture readers, so
// a faulted stream is still read by the production framer and keeps its
// whole interface (spans included): Apply damages a buffer (truncation,
// bit-flips, garbage splices) for fixture generation, and Reader wraps a
// raw io.Reader to inject short reads, transient EAGAIN-class errors,
// on-the-fly bit-flips and truncation at exact offsets; Arrivals lists
// the ways an undamaged delivery of the same bytes can still differ
// (read sizes, data arriving together with io.EOF), for tests that pin
// framing as arrival-independent.
//
// Everything is deterministic: identical faults over identical input
// produce identical damage, and seeded faults (Garbage) take an explicit
// seed, never global randomness.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing/iotest"
)

// Kind enumerates byte-plane fault types.
type Kind int

// Byte-plane fault kinds.
const (
	// Truncate ends the stream at Offset: a torn tail.
	Truncate Kind = iota
	// BitFlip XORs Len bytes starting at Offset with XorMask
	// (Len 0 means 1; XorMask 0 means 0x01 — a single flipped bit).
	BitFlip
	// Garbage splices Len seeded pseudo-random bytes in at Offset,
	// shifting the rest of the stream. Apply-only: insertion changes
	// framing offsets, so it is a fixture-preprocessing fault, not a
	// streaming one.
	Garbage
	// ShortRead serves at most one byte per Read call for the Len
	// bytes starting at Offset.
	ShortRead
	// Transient makes the read that would first touch Offset fail Count
	// times with a Temporary() error before succeeding.
	Transient
)

func (k Kind) String() string {
	switch k {
	case Truncate:
		return "truncate"
	case BitFlip:
		return "bitflip"
	case Garbage:
		return "garbage"
	case ShortRead:
		return "shortread"
	case Transient:
		return "transient"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one byte-plane injection at an absolute stream offset.
type Fault struct {
	Kind    Kind
	Offset  uint64
	Len     int  // damaged span (BitFlip, Garbage, ShortRead)
	XorMask byte // BitFlip pattern; 0 means 0x01
	Count   int  // Transient repetitions; 0 means 1
	Seed    int64
}

func (f Fault) mask() byte {
	if f.XorMask == 0 {
		return 0x01
	}
	return f.XorMask
}

func (f Fault) span() int {
	if f.Len <= 0 {
		return 1
	}
	return f.Len
}

func (f Fault) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// TransientError is the injected EAGAIN-class failure. It implements
// Temporary(), which is the whole contract the salvage retry loop keys
// on.
type TransientError struct {
	Offset uint64
}

// Error implements error.
func (e *TransientError) Error() string {
	return fmt.Sprintf("faultinject: resource temporarily unavailable at byte offset %d", e.Offset)
}

// Temporary marks the error retryable (net.Error convention).
func (e *TransientError) Temporary() bool { return true }

// Apply returns a damaged copy of data. Only content faults act here
// (Truncate, BitFlip, Garbage); timing faults (ShortRead, Transient) are
// ignored — wrap a Reader for those. Faults are applied in argument
// order, each against the buffer the previous one produced, so a Garbage
// splice shifts the offsets later faults see.
func Apply(data []byte, faults ...Fault) []byte {
	out := append([]byte(nil), data...)
	for _, f := range faults {
		switch f.Kind {
		case Truncate:
			if f.Offset < uint64(len(out)) {
				out = out[:f.Offset]
			}
		case BitFlip:
			for i := 0; i < f.span(); i++ {
				at := f.Offset + uint64(i)
				if at < uint64(len(out)) {
					out[at] ^= f.mask()
				}
			}
		case Garbage:
			if f.Offset > uint64(len(out)) {
				break
			}
			junk := make([]byte, f.span())
			rand.New(rand.NewSource(f.Seed)).Read(junk)
			tail := append([]byte(nil), out[f.Offset:]...)
			out = append(append(out[:f.Offset], junk...), tail...)
		}
	}
	return out
}

// Reader wraps an io.Reader and injects byte-plane faults at exact
// offsets: Truncate (early EOF), BitFlip (on-the-fly corruption),
// ShortRead (one byte per call across the span), Transient (Temporary
// errors before the read crossing the offset). Garbage faults are
// rejected by NewReader — splice with Apply instead.
type Reader struct {
	r      io.Reader
	faults []Fault
	off    uint64
	fired  []int // remaining Transient repetitions, parallel to faults
}

// NewReader builds a fault-injecting reader. It panics on Garbage
// faults: misusing the plane is a test-author bug worth failing loudly
// on.
func NewReader(r io.Reader, faults ...Fault) *Reader {
	fired := make([]int, len(faults))
	for i, f := range faults {
		switch f.Kind {
		case Garbage:
			panic("faultinject: Garbage is Apply-only (splicing shifts stream offsets)")
		case Transient:
			fired[i] = f.count()
		}
	}
	return &Reader{r: r, faults: faults, fired: fired}
}

// Offset returns how many bytes have been served so far.
func (fr *Reader) Offset() uint64 { return fr.off }

// Read implements io.Reader with the configured faults.
func (fr *Reader) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	limit := len(b)
	for i, f := range fr.faults {
		switch f.Kind {
		case Transient:
			// Fires on the read that would first touch f.Offset.
			if fr.fired[i] > 0 && fr.off+uint64(limit) > f.Offset && fr.off <= f.Offset {
				fr.fired[i]--
				return 0, &TransientError{Offset: f.Offset}
			}
		case Truncate:
			if fr.off >= f.Offset {
				return 0, io.EOF
			}
			if n := f.Offset - fr.off; uint64(limit) > n {
				limit = int(n)
			}
		case ShortRead:
			end := f.Offset + uint64(f.span())
			if fr.off >= f.Offset && fr.off < end {
				limit = 1
			} else if fr.off < f.Offset && fr.off+uint64(limit) > f.Offset {
				limit = int(f.Offset - fr.off)
			}
		}
	}
	n, err := fr.r.Read(b[:limit])
	for _, f := range fr.faults {
		if f.Kind != BitFlip {
			continue
		}
		for i := 0; i < f.span(); i++ {
			at := f.Offset + uint64(i)
			if at >= fr.off && at < fr.off+uint64(n) {
				b[at-fr.off] ^= f.mask()
			}
		}
	}
	fr.off += uint64(n)
	return n, err
}

// Arrival is one way the same bytes can reach a reader. Framing must
// not depend on it: a reader over any arrival of a stream — damaged or
// not — yields the same records, the same terminal error and the same
// salvage ledger.
type Arrival struct {
	Name string
	Open func(data []byte) io.Reader
}

// Arrivals lists the streamed arrival shapes the capture readers are
// tested across: reads that fill the buffer offered, one byte per read,
// seeded random short reads, and final bytes delivered together with
// io.EOF.
func Arrivals() []Arrival {
	whole := func(data []byte) io.Reader { return bytes.NewReader(data) }
	return []Arrival{
		{"full-reads", whole},
		{"one-byte", func(data []byte) io.Reader { return iotest.OneByteReader(whole(data)) }},
		{"short-reads", func(data []byte) io.Reader {
			return &shortReader{r: whole(data), rng: rand.New(rand.NewSource(int64(len(data))))}
		}},
		{"data-with-eof", func(data []byte) io.Reader { return iotest.DataErrReader(whole(data)) }},
	}
}

// shortReader serves 1..61 bytes per Read, so record headers, payloads
// and resync probes all straddle read boundaries somewhere.
type shortReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (s *shortReader) Read(b []byte) (int, error) {
	if n := 1 + s.rng.Intn(61); n < len(b) {
		b = b[:n]
	}
	return s.r.Read(b)
}
