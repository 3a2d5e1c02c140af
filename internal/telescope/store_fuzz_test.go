package telescope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
)

// validTrace builds a small well-formed trace for corpus seeding.
func validTrace(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []*Packet{
		mkPacket(MeasurementStart, "1.2.3.4", "44.0.0.1", 1234, 443),
		{
			TS: TS(MeasurementStart.Add(time.Second)), Src: netmodel.MustAddr("142.250.0.9"),
			Dst: netmodel.MustAddr("44.1.2.3"), SrcPort: 443, DstPort: 9999,
			Proto: ProtoUDP, Size: 6, Payload: []byte{0xc0, 1, 2, 3, 4, 5}, Weight: 0,
		},
		{
			TS: TS(MeasurementStart.Add(2 * time.Second)), Src: netmodel.MustAddr("5.6.7.8"),
			Dst: netmodel.MustAddr("44.9.9.9"), Proto: ProtoICMP, Flags: 3, Size: 56, Weight: 64,
		},
	}
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzQSNDReader pins the record decoder's total behavior on arbitrary
// bytes: it must terminate, never panic, and fail only with io.EOF (a
// clean boundary) or an ErrBadTrace-wrapped corruption error; every
// record it does accept must survive a write→read round trip
// bit-identically.
func FuzzQSNDReader(f *testing.F) {
	valid := validTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // truncated tail
	f.Add(valid[:9])                      // truncated first record header
	f.Add([]byte{})                       // empty
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}) // foreign magic
	bad := append([]byte(nil), valid...)
	bad[4] = 9 // unsupported version
	f.Add(bad)
	over := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(over[8+28:], 7) // payloadLen > size on record 0
	f.Add(over)
	// Fault-injected damage shapes the salvage reader must also survive:
	// a torn tail, a mid-record bit flip, and a garbage splice.
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.Truncate, Offset: uint64(len(valid)) - 5}))
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.BitFlip, Offset: 8 + 30 + 20, XorMask: 0xFF}))
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.Garbage, Offset: 8 + 30, Len: 41, Seed: 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var decoded []*Packet
		for {
			p, err := r.Read()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadTrace) {
					t.Fatalf("unexpected error class: %v", err)
				}
				if errors.Is(err, ErrBadTrace) && !strings.Contains(err.Error(), "offset") {
					t.Fatalf("corruption error without byte offset: %v", err)
				}
				break
			}
			if len(p.Payload) > int(p.Size) {
				t.Fatalf("accepted payload %d > size %d", len(p.Payload), p.Size)
			}
			decoded = append(decoded, p)
		}
		if r.Offset() > uint64(len(data)) {
			t.Fatalf("offset %d beyond input %d", r.Offset(), len(data))
		}
		// Salvage mode must also terminate on the same bytes, recover at
		// least the fail-fast prefix, and end only in a clean EOF or a
		// terminal file-header error.
		sr := NewReader(bytes.NewReader(data))
		sr.SetSalvage(salvage.Policy{SkipCorrupt: true})
		salvaged := 0
		for {
			_, err := sr.Read()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadTrace) {
					t.Fatalf("salvage terminal error class: %v", err)
				}
				break
			}
			salvaged++
		}
		if salvaged < len(decoded) {
			t.Fatalf("salvage recovered %d records, fail-fast got %d", salvaged, len(decoded))
		}
		// How the bytes arrive must not show: the slice window and a
		// one-byte-at-a-time stream account the damage identically.
		bp, berr, bsv := drainReader(NewBuffer(data), salvage.Policy{SkipCorrupt: true})
		op, oerr, osv := drainReader(NewReader(iotest.OneByteReader(bytes.NewReader(data))), salvage.Policy{SkipCorrupt: true})
		if len(bp) != salvaged || len(op) != salvaged || bsv != sr.Salvage() || osv != bsv ||
			berr.Error() != oerr.Error() {
			t.Fatalf("arrivals disagree: stream %d records %+v; slice %d %+v (%v); one-byte %d %+v (%v)",
				salvaged, sr.Salvage(), len(bp), bsv, berr, len(op), osv, oerr)
		}
		// Accepted records re-encode canonically.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range decoded {
			if err := w.Write(p); err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rr := NewReader(&buf)
		for i, want := range decoded {
			got, err := rr.Read()
			if err != nil {
				t.Fatalf("re-read record %d: %v", i, err)
			}
			if got.TS != want.TS || got.Src != want.Src || got.Dst != want.Dst ||
				got.SrcPort != want.SrcPort || got.DstPort != want.DstPort ||
				got.Proto != want.Proto || got.Flags != want.Flags ||
				got.Size != want.Size || got.Weight != want.Weight ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("record %d not canonical:\n%+v\n%+v", i, got, want)
			}
		}
	})
}

func TestReaderRejectsPayloadExceedingSize(t *testing.T) {
	data := validTrace(t)
	// Record 0 starts at offset 8; its payloadLen field sits 28 bytes in.
	binary.LittleEndian.PutUint16(data[8+28:], 9999)
	r := NewReader(bytes.NewReader(data))
	_, err := r.Read()
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "exceeds datagram size") || !strings.Contains(err.Error(), "offset 8") {
		t.Errorf("error lacks cause or offset: %v", err)
	}
}

func TestReaderTruncatedTailNamesOffset(t *testing.T) {
	data := validTrace(t)
	r := NewReader(bytes.NewReader(data[:len(data)-3]))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated tail surfaced as %v, want ErrBadTrace", err)
	}
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("err = %v, want offset-annotated ErrBadTrace", err)
	}
}

func TestReaderRejectsVersion(t *testing.T) {
	data := validTrace(t)
	binary.LittleEndian.PutUint32(data[4:], 1)
	_, err := NewReader(bytes.NewReader(data)).Read()
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version ErrBadTrace", err)
	}
}

func TestStoreWeightRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(MeasurementStart, "9.9.9.9", "44.0.0.7", 40001, 443)
	p.Weight = 1 << 20
	if err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != p.Weight || got.Size != p.Size || got.Flags != p.Flags {
		t.Errorf("round trip lost fields: %+v vs %+v", got, p)
	}
}

// failAfter fails every write once n bytes have passed — a full disk.
type failAfter struct {
	n    int
	seen int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(b []byte) (int, error) {
	if f.seen+len(b) > f.n {
		return 0, errDiskFull
	}
	f.seen += len(b)
	return len(b), nil
}

func TestWriterStickyErrorAndDropCount(t *testing.T) {
	w := NewWriter(&failAfter{n: 40})
	p := mkPacket(MeasurementStart, "1.1.1.1", "44.0.0.1", 1, 443)
	// The bufio layer defers failure until its buffer drains; force it.
	for i := 0; i < 5000; i++ {
		w.Capture(p)
	}
	if err := w.Err(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Err() = %v, want disk full", err)
	}
	if err := w.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush() = %v, want sticky disk full", err)
	}
	if w.Dropped() == 0 {
		t.Error("no dropped records counted after failure")
	}
	if err := w.Write(p); !errors.Is(err, errDiskFull) {
		t.Fatalf("Write after failure = %v, want fast-fail", err)
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("empty trace is %d bytes, want the 8-byte header", buf.Len())
	}
	if _, err := NewReader(&buf).Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty trace read err = %v, want clean EOF", err)
	}
}

func TestReadIntoReusesPayload(t *testing.T) {
	data := validTrace(t)
	r := NewReader(bytes.NewReader(data))
	var p Packet
	var caps []int
	for {
		if err := r.ReadInto(&p); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		caps = append(caps, cap(p.Payload))
	}
	if len(caps) != 3 {
		t.Fatalf("read %d records, want 3", len(caps))
	}
}
