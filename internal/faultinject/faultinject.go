// Package faultinject is the deterministic fault layer behind the
// salvage-mode test matrix: it damages byte streams and record streams
// in precisely reproducible ways so every degraded-ingest path —
// resync scans, transient-retry loops, full-disk truncation — can be
// driven by tests, fuzz corpora, and the CI chaos matrix without any
// real broken hardware.
//
// Faults live on two planes:
//
//   - the byte plane: Apply damages a buffer (truncation, bit-flips,
//     garbage splices) for fixture generation, and Reader/Writer wrap
//     raw io.Reader/io.Writer to inject short reads, transient
//     EAGAIN-class errors, on-the-fly bit-flips, truncation, and
//     ENOSPC at exact offsets; Arrivals lists the ways an undamaged
//     delivery of the same bytes can still differ (read sizes, data
//     arriving together with io.EOF), for tests that pin framing as
//     arrival-independent;
//   - the record plane: WrapSource and WrapSink wrap anything shaped
//     like a capture.Source/Sink (via Go generics, so this package
//     stays import-free of the capture stack) to drop, mutate, or
//     transiently fail specific record indices.
//
// Everything is deterministic: identical faults over identical input
// produce identical damage. Randomized fault plans derive from an
// explicit seed (Plan), never from global randomness.
package faultinject

import (
	"bytes"
	"errors"
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
	// Transient makes the read (or write) that would first touch
	// Offset fail Count times with a Temporary() error before
	// succeeding.
	Transient
	// WriteFull makes every write at or past Offset fail with
	// ErrNoSpace: the ENOSPC cliff.
	WriteFull
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
	case WriteFull:
		return "writefull"
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

// ErrNoSpace is the injected ENOSPC: what a full disk returns.
var ErrNoSpace = errors.New("faultinject: no space left on device")

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
// (Truncate, BitFlip, Garbage); timing faults (ShortRead, Transient,
// WriteFull) are ignored — wrap a Reader/Writer for those. Faults are
// applied in argument order, each against the buffer the previous one
// produced, so a Garbage splice shifts the offsets later faults see.
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

// NewReader builds a fault-injecting reader. It panics on Garbage or
// WriteFull faults: misusing the plane is a test-author bug worth
// failing loudly on.
func NewReader(r io.Reader, faults ...Fault) *Reader {
	fired := make([]int, len(faults))
	for i, f := range faults {
		switch f.Kind {
		case Garbage:
			panic("faultinject: Garbage is Apply-only (splicing shifts stream offsets)")
		case WriteFull:
			panic("faultinject: WriteFull is a Writer fault")
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

// Writer wraps an io.Writer and injects WriteFull (sticky ENOSPC once
// Offset bytes have been accepted) and Transient faults.
type Writer struct {
	w      io.Writer
	faults []Fault
	off    uint64
	fired  []int
}

// NewWriter builds a fault-injecting writer. Only WriteFull and
// Transient apply; other kinds panic.
func NewWriter(w io.Writer, faults ...Fault) *Writer {
	fired := make([]int, len(faults))
	for i, f := range faults {
		switch f.Kind {
		case WriteFull:
		case Transient:
			fired[i] = f.count()
		default:
			panic("faultinject: " + f.Kind.String() + " is not a Writer fault")
		}
	}
	return &Writer{w: w, faults: faults, fired: fired}
}

// Write implements io.Writer with the configured faults.
func (fw *Writer) Write(b []byte) (int, error) {
	for i, f := range fw.faults {
		switch f.Kind {
		case WriteFull:
			if fw.off+uint64(len(b)) > f.Offset {
				// Accept the prefix that still fits, then fail — how a
				// real filesystem hits ENOSPC mid-write.
				fit := 0
				if f.Offset > fw.off {
					fit = int(f.Offset - fw.off)
				}
				if fit > 0 {
					n, err := fw.w.Write(b[:fit])
					fw.off += uint64(n)
					if err != nil {
						return n, err
					}
					return n, ErrNoSpace
				}
				return 0, ErrNoSpace
			}
		case Transient:
			if fw.fired[i] > 0 && fw.off+uint64(len(b)) > f.Offset && fw.off <= f.Offset {
				fw.fired[i]--
				return 0, &TransientError{Offset: f.Offset}
			}
		}
	}
	n, err := fw.w.Write(b)
	fw.off += uint64(n)
	return n, err
}

// Plan derives a deterministic pseudo-random set of content faults for
// a stream of the given length: nothing about the damage depends on
// anything but (seed, size, n). Used to seed fuzz corpora with varied
// torn-tail / bit-flip / garbage-splice damage.
func Plan(seed int64, size uint64, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{Seed: rng.Int63()}
		if size > 0 {
			f.Offset = uint64(rng.Int63n(int64(size)))
		}
		switch rng.Intn(3) {
		case 0:
			f.Kind = Truncate
		case 1:
			f.Kind = BitFlip
			f.Len = 1 + rng.Intn(4)
			f.XorMask = byte(1 << rng.Intn(8))
		case 2:
			f.Kind = Garbage
			f.Len = 1 + rng.Intn(128)
		}
		faults = append(faults, f)
	}
	return faults
}

// RecordFault is one record-plane injection, addressed by the 0-based
// index of the record it fires at.
type RecordFault struct {
	// Index is the record ordinal the fault applies to.
	Index uint64
	// Drop discards this many records starting at Index.
	Drop int
	// Transient fails the Next/Write that would produce record Index
	// this many times with a Temporary() error before letting it
	// through.
	Transient int
}

// Source is the structural shape of a record stream — capture.Source
// with the record type abstracted away so this package needs no
// capture import.
type Source[T any] interface {
	Next() (T, error)
}

// FaultSource wraps a Source and injects record-plane faults. With
// T = *telescope.Packet it satisfies capture.Source.
type FaultSource[T any] struct {
	src    Source[T]
	faults []RecordFault
	fired  []int
	idx    uint64
}

// WrapSource builds a record-plane fault injector over src.
func WrapSource[T any](src Source[T], faults ...RecordFault) *FaultSource[T] {
	fired := make([]int, len(faults))
	for i, f := range faults {
		fired[i] = f.Transient
	}
	return &FaultSource[T]{src: src, faults: faults, fired: fired}
}

// Next implements the wrapped stream with drops and transient errors.
// A transient failure does not consume the underlying record: the
// retried call returns it, which is the repositioning contract the
// scatter stage's retry loop assumes.
func (fs *FaultSource[T]) Next() (T, error) {
	for {
		for i, f := range fs.faults {
			if fs.idx == f.Index && fs.fired[i] > 0 {
				fs.fired[i]--
				var zero T
				return zero, &TransientError{Offset: fs.idx}
			}
		}
		rec, err := fs.src.Next()
		if err != nil {
			var zero T
			return zero, err
		}
		idx := fs.idx
		fs.idx++
		dropped := false
		for _, f := range fs.faults {
			if f.Drop > 0 && idx >= f.Index && idx < f.Index+uint64(f.Drop) {
				dropped = true
				break
			}
		}
		if !dropped {
			return rec, nil
		}
	}
}

// Sink is the structural shape of capture.Sink with the record type
// abstracted away.
type Sink[T any] interface {
	Capture(T)
	Write(T) error
	Flush() error
	Err() error
	Count() uint64
	Dropped() uint64
}

// FaultSink wraps a Sink and fails writes at chosen record indices
// with ErrNoSpace (RecordFault.Drop > 0 meaning "refuse this many
// records") or Temporary errors. With T = *telescope.Packet it
// satisfies capture.Sink.
type FaultSink[T any] struct {
	sink   Sink[T]
	faults []RecordFault
	fired  []int
	idx    uint64
	err    error
}

// WrapSink builds a record-plane fault injector over sink.
func WrapSink[T any](sink Sink[T], faults ...RecordFault) *FaultSink[T] {
	fired := make([]int, len(faults))
	for i, f := range faults {
		fired[i] = f.Transient
	}
	return &FaultSink[T]{sink: sink, faults: faults, fired: fired}
}

// Write implements the wrapped sink with injected failures.
func (fs *FaultSink[T]) Write(rec T) error {
	idx := fs.idx
	fs.idx++
	for i, f := range fs.faults {
		if idx == f.Index && fs.fired[i] > 0 {
			fs.fired[i]--
			fs.idx-- // the record was not consumed; a retry re-offers it
			return &TransientError{Offset: idx}
		}
		if f.Drop > 0 && idx >= f.Index && idx < f.Index+uint64(f.Drop) {
			if fs.err == nil {
				fs.err = ErrNoSpace
			}
			return ErrNoSpace
		}
	}
	return fs.sink.Write(rec)
}

// Capture implements the fire-and-forget path: errors are retained.
func (fs *FaultSink[T]) Capture(rec T) { _ = fs.Write(rec) }

// Flush implements Sink.
func (fs *FaultSink[T]) Flush() error {
	if err := fs.sink.Flush(); err != nil {
		return err
	}
	return fs.err
}

// Err implements Sink.
func (fs *FaultSink[T]) Err() error {
	if fs.err != nil {
		return fs.err
	}
	return fs.sink.Err()
}

// Count implements Sink.
func (fs *FaultSink[T]) Count() uint64 { return fs.sink.Count() }

// Dropped implements Sink, folding records this layer refused into the
// wrapped sink's own count.
func (fs *FaultSink[T]) Dropped() uint64 {
	var refused uint64
	for _, f := range fs.faults {
		if f.Drop > 0 {
			end := f.Index + uint64(f.Drop)
			if fs.idx > f.Index {
				n := fs.idx
				if n > end {
					n = end
				}
				refused += n - f.Index
			}
		}
	}
	return fs.sink.Dropped() + refused
}
