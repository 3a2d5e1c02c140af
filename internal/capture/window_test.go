package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"quicsand/internal/faultinject"
)

// fakeRec builds a toy record format for window tests: an 8-byte
// header (u32 magic 0xFEEDFACE | u32 bodyLen) followed by the body.
const fakeMagic = 0xFEEDFACE

func fakeRec(body []byte) []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	return append(hdr, body...)
}

func fakeBoundary() boundary {
	return boundary{
		hdrLen: 8,
		plausible: func(hdr []byte) (int, bool) {
			if binary.LittleEndian.Uint32(hdr[0:4]) != fakeMagic {
				return 0, false
			}
			n := binary.LittleEndian.Uint32(hdr[4:8])
			if n > 1<<16 {
				return 0, false
			}
			return 8 + int(n), true
		},
	}
}

// transientErr implements Temporary for retry tests.
type transientErr struct{}

func (transientErr) Error() string   { return "transient: resource temporarily unavailable" }
func (transientErr) Temporary() bool { return true }

// flakyReader fails with a transient error the first `fail` calls,
// then serves from the wrapped reader.
type flakyReader struct {
	r    io.Reader
	fail int
}

func (f *flakyReader) Read(b []byte) (int, error) {
	if f.fail > 0 {
		f.fail--
		return 0, transientErr{}
	}
	return f.r.Read(b)
}

func TestIsTransient(t *testing.T) {
	if !isTransient(transientErr{}) {
		t.Fatal("transientErr not recognized")
	}
	if isTransient(errors.New("x")) {
		t.Fatal("plain error recognized as transient")
	}
	if isTransient(nil) {
		t.Fatal("nil recognized as transient")
	}
	wrapped := errors.Join(errors.New("outer"), transientErr{})
	if !isTransient(wrapped) {
		t.Fatal("wrapped transient not recognized")
	}
}

// The TestReadFull* cases pin window.peek's read contract; they keep
// the names they had when the same contract lived in a ReadFull method.

func TestReadFullRetriesTransient(t *testing.T) {
	var slept []time.Duration
	w := newWindow(&flakyReader{r: bytes.NewReader([]byte("abcdef")), fail: 3})
	w.pol = SalvagePolicy{
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	buf, err := w.peek(6)
	if err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if string(buf) != "abcdef" {
		t.Fatalf("got %q", buf)
	}
	if w.stats.TransientRetries != 3 {
		t.Fatalf("TransientRetries = %d, want 3", w.stats.TransientRetries)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, want %v", i, slept[i], want[i])
		}
	}
	if w.offset() != 0 {
		t.Fatalf("offset = %d after Peek, want 0 (nothing consumed)", w.offset())
	}
	w.advance(6)
	if w.offset() != 6 {
		t.Fatalf("offset = %d, want 6", w.offset())
	}
}

func TestReadFullExhaustsRetries(t *testing.T) {
	w := newWindow(&flakyReader{r: bytes.NewReader(nil), fail: 100})
	w.pol = SalvagePolicy{MaxRetries: 2, Sleep: func(time.Duration) {}}
	_, err := w.peek(4)
	if !isTransient(err) {
		t.Fatalf("want the transient error surfaced after retries, got %v", err)
	}
	if w.stats.TransientRetries != 2 {
		t.Fatalf("TransientRetries = %d, want 2", w.stats.TransientRetries)
	}
}

func TestReadFullNoRetryByDefault(t *testing.T) {
	w := newWindow(&flakyReader{r: bytes.NewReader([]byte("ab")), fail: 1})
	_, err := w.peek(2)
	if !isTransient(err) {
		t.Fatalf("zero policy must fail fast on transient errors, got %v", err)
	}
	// The failed read consumed nothing and is not sticky: the caller's
	// own retry (capture.Scatter's record-level loop) sees the bytes.
	if buf, err := w.peek(2); err != nil || string(buf) != "ab" {
		t.Fatalf("Peek after the transient error = %q, %v", buf, err)
	}
}

func TestReadFullEOFContract(t *testing.T) {
	for name, open := range map[string]func([]byte) *window{
		"stream": func(b []byte) *window { return newWindow(bytes.NewReader(b)) },
		"slice":  newSliceWindow,
	} {
		if _, err := open(nil).peek(1); err != io.EOF {
			t.Fatalf("%s: empty stream: got %v, want io.EOF", name, err)
		}
		w := open([]byte("ab"))
		buf, err := w.peek(4)
		if err != io.ErrUnexpectedEOF || string(buf) != "ab" {
			t.Fatalf("%s: partial fill: got %q, %v, want \"ab\", io.ErrUnexpectedEOF", name, buf, err)
		}
		if w.offset() != 0 {
			t.Fatalf("%s: offset = %d after a failed Peek, want 0", name, w.offset())
		}
	}
}

// TestPeekTransientMidRecordKeepsOffset pins what makes a caller-level
// retry sound: a transient error that arrives after part of a record
// leaves Offset at the record start and the bytes buffered, so the
// retried Peek returns the whole record.
func TestPeekTransientMidRecordKeepsOffset(t *testing.T) {
	rec := fakeRec([]byte("interrupted"))
	data := append(fakeRec([]byte("first")), rec...)
	start := len(data) - len(rec)
	w := newWindow(io.MultiReader(
		bytes.NewReader(data[:start+5]),
		&flakyReader{r: bytes.NewReader(data[start+5:]), fail: 1}))
	got := drainFake(t, w, fakeBoundary(), 1)
	if len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("before the fault: %q", got)
	}
	if _, err := w.peek(len(rec)); !isTransient(err) {
		t.Fatalf("mid-record Peek err = %v, want the transient error", err)
	}
	if w.offset() != uint64(start) {
		t.Fatalf("offset = %d after the failed Peek, want the record start %d", w.offset(), start)
	}
	if buf, err := w.peek(len(rec)); err != nil || !bytes.Equal(buf, rec) {
		t.Fatalf("retried Peek = %q, %v", buf, err)
	}
}

// drainFake drains w through the toy format the way the real framers
// do — validate on peeked bytes, advance only past a complete record,
// Resync on anything else — stopping after max records (0 = all).
func drainFake(t *testing.T, w *window, b boundary, max int) [][]byte {
	t.Helper()
	var out [][]byte
	for max == 0 || len(out) < max {
		hdr, err := w.peek(b.hdrLen)
		switch err {
		case io.EOF:
			return out
		case nil:
			if n, ok := b.plausible(hdr); ok {
				if rec, err := w.peek(n); err == nil {
					out = append(out, append([]byte(nil), rec[b.hdrLen:]...))
					w.advance(n)
					continue
				}
			}
		case io.ErrUnexpectedEOF: // torn tail inside a header
		default:
			t.Fatalf("header peek: %v", err)
		}
		if w.resync(b) == io.EOF {
			return out
		}
	}
	return out
}

func salvaging(data []byte) *window {
	w := newWindow(bytes.NewReader(data))
	w.pol = SalvagePolicy{SkipCorrupt: true}
	return w
}

func TestResyncSkipsGarbageSplice(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-longer")}
	var clean bytes.Buffer
	for _, r := range recs {
		clean.Write(fakeRec(r))
	}
	// Splice 37 bytes of garbage between record 0 and 1.
	garbage := bytes.Repeat([]byte{0xAA, 0x55, 0x00}, 13)[:37]
	r0 := len(fakeRec(recs[0]))
	damaged := append(append(append([]byte(nil), clean.Bytes()[:r0]...), garbage...), clean.Bytes()[r0:]...)

	w := salvaging(damaged)
	got := drainFake(t, w, fakeBoundary(), 0)
	if len(got) != 3 {
		t.Fatalf("salvaged %d records, want 3", len(got))
	}
	for i, r := range recs {
		if !bytes.Equal(got[i], r) {
			t.Fatalf("record %d = %q, want %q", i, got[i], r)
		}
	}
	st := w.stats
	if st.CorruptRecords != 1 || st.ResyncScans != 1 {
		t.Fatalf("counters = %+v, want 1 corrupt / 1 resync", st)
	}
	if st.SalvagedBytes != uint64(len(garbage)) {
		t.Fatalf("SalvagedBytes = %d, want %d", st.SalvagedBytes, len(garbage))
	}
	wantLost := uint64(len(garbage))/8 + 1
	if st.MaxLostRecords != wantLost {
		t.Fatalf("MaxLostRecords = %d, want %d", st.MaxLostRecords, wantLost)
	}
	if w.offset() != uint64(len(damaged)) {
		t.Fatalf("final offset = %d, want %d", w.offset(), len(damaged))
	}
}

func TestResyncTornTail(t *testing.T) {
	full := append(fakeRec([]byte("one")), fakeRec([]byte("two"))...)
	// Tear mid-way through record two's body.
	torn := full[:len(full)-2]
	w := salvaging(torn)
	got := drainFake(t, w, fakeBoundary(), 0)
	if len(got) != 1 || string(got[0]) != "one" {
		t.Fatalf("salvaged %v, want [one]", got)
	}
	if w.stats.CorruptRecords != 1 || w.stats.MaxLostRecords == 0 {
		t.Fatalf("counters = %+v", w.stats)
	}
	if w.offset() != uint64(len(torn)) {
		t.Fatalf("offset = %d, want %d (end of stream)", w.offset(), len(torn))
	}
}

func TestResyncLongSpanSlidesWindow(t *testing.T) {
	// A damaged span several windows long must still converge, account
	// every skipped byte exactly once, and slide rather than grow.
	span := bytes.Repeat([]byte{0x13, 0x37}, (3*windowSize)/2) // 3 windows of junk
	data := append(append(fakeRec([]byte("pre")), span...), fakeRec([]byte("post"))...)
	w := salvaging(data)
	got := drainFake(t, w, fakeBoundary(), 0)
	if len(got) != 2 || string(got[0]) != "pre" || string(got[1]) != "post" {
		t.Fatalf("salvaged %d records: %q", len(got), got)
	}
	if w.stats.SalvagedBytes != uint64(len(span)) {
		t.Fatalf("SalvagedBytes = %d, want %d", w.stats.SalvagedBytes, len(span))
	}
	if w.offset() != uint64(len(data)) {
		t.Fatalf("offset = %d, want %d", w.offset(), len(data))
	}
	if cap(w.buf) != windowSize {
		t.Fatalf("window grew to %d bytes scanning junk, want it to slide at %d", cap(w.buf), windowSize)
	}
}

func TestResyncRejectsFalseBoundary(t *testing.T) {
	// Garbage containing a plausible header whose framed record is NOT
	// followed by another plausible header must not be accepted as a
	// boundary: double confirmation skips it.
	fake := make([]byte, 8)
	binary.LittleEndian.PutUint32(fake[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(fake[4:8], 5) // claims 5-byte body
	junk := append(append(bytes.Repeat([]byte{0xEE}, 11), fake...), bytes.Repeat([]byte{0xEE}, 9)...)
	data := append(append(fakeRec([]byte("first")), junk...), fakeRec([]byte("second"))...)
	got := drainFake(t, salvaging(data), fakeBoundary(), 0)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("salvaged %q, want [first second]", got)
	}
}

// TestWindowGrowsToLargestRecord frames a record longer than the
// initial buffer: the window reallocates once, to the windowSize
// multiple that holds it, and keeps framing small records after.
func TestWindowGrowsToLargestRecord(t *testing.T) {
	big := bytes.Repeat([]byte{0x5a}, windowSize+windowSize/2)
	b := fakeBoundary()
	b.plausible = func(hdr []byte) (int, bool) {
		if binary.LittleEndian.Uint32(hdr[0:4]) != fakeMagic {
			return 0, false
		}
		return 8 + int(binary.LittleEndian.Uint32(hdr[4:8])), true
	}
	data := append(append(fakeRec([]byte("small")), fakeRec(big)...), fakeRec([]byte("after"))...)
	w := newWindow(bytes.NewReader(data))
	got := drainFake(t, w, b, 0)
	if len(got) != 3 || string(got[0]) != "small" || !bytes.Equal(got[1], big) || string(got[2]) != "after" {
		t.Fatalf("framed %d records around the oversize one", len(got))
	}
	if cap(w.buf) != 2*windowSize {
		t.Fatalf("window is %d bytes, want %d", cap(w.buf), 2*windowSize)
	}
	if w.stats != (SalvageStats{}) {
		t.Fatalf("clean stream left a ledger: %+v", w.stats)
	}
}

func TestPolicyEnabled(t *testing.T) {
	if (SalvagePolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !(SalvagePolicy{SkipCorrupt: true}).Enabled() || !(SalvagePolicy{MaxRetries: 1}).Enabled() {
		t.Fatal("non-zero policies must be enabled")
	}
}

// TestResyncBufferMatchesScanner drives every damage shape through
// every arrival — the whole stream as one slice (the memory-mapped
// case) and the streamed shapes — and requires the same records and
// the same ledger from each. (It keeps the name it had when slice and
// stream were two resync implementations held equal by this table.)
func TestResyncBufferMatchesScanner(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-longer"), []byte("delta4")}
	var clean bytes.Buffer
	for _, r := range recs {
		clean.Write(fakeRec(r))
	}
	r0 := len(fakeRec(recs[0]))
	garbage := bytes.Repeat([]byte{0xAA, 0x55, 0x00}, 13)[:37]
	spliced := append(append(append([]byte(nil), clean.Bytes()[:r0]...), garbage...), clean.Bytes()[r0:]...)

	flipped := append([]byte(nil), clean.Bytes()...)
	flipped[r0+1] ^= 0xFF // break record 1's magic

	fake := make([]byte, 8)
	binary.LittleEndian.PutUint32(fake[0:4], fakeMagic)
	binary.LittleEndian.PutUint32(fake[4:8], 5)
	junk := append(append(bytes.Repeat([]byte{0xEE}, 11), fake...), bytes.Repeat([]byte{0xEE}, 9)...)
	falseBoundary := append(append(fakeRec([]byte("first")), junk...), fakeRec([]byte("second"))...)

	longSpan := bytes.Repeat([]byte{0x13, 0x37}, (3*windowSize)/2)

	cases := map[string][]byte{
		"clean":          clean.Bytes(),
		"garbage-splice": spliced,
		"magic-flip":     flipped,
		"torn-header":    clean.Bytes()[:clean.Len()-len(fakeRec(recs[3]))+3],
		"torn-body":      clean.Bytes()[:clean.Len()-2],
		"false-boundary": falseBoundary,
		"long-span":      append(append(fakeRec([]byte("pre")), longSpan...), fakeRec([]byte("post"))...),
		"garbage-tail":   append(append([]byte(nil), clean.Bytes()...), bytes.Repeat([]byte{0xEE}, 23)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			slice := newSliceWindow(data)
			want := drainFake(t, slice, fakeBoundary(), 0)
			for _, a := range faultinject.Arrivals() {
				w := newWindow(a.Open(data))
				got := drainFake(t, w, fakeBoundary(), 0)
				if len(want) != len(got) {
					t.Fatalf("%s recovered %d records, slice %d", a.Name, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Errorf("%s record %d: %q, slice %q", a.Name, i, got[i], want[i])
					}
				}
				if w.stats != slice.stats {
					t.Errorf("ledgers differ:\n %s %+v\n slice %+v", a.Name, w.stats, slice.stats)
				}
				if w.offset() != slice.offset() {
					t.Errorf("%s ended at offset %d, slice at %d", a.Name, w.offset(), slice.offset())
				}
			}
		})
	}
}
