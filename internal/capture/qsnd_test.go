package capture

// QSND store tests: the shared reader and writer over the native
// format (round trips, corruption errors, the sticky writer).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

func mkPacket(ts time.Time, src, dst string, sport, dport uint16) *telescope.Packet {
	return &telescope.Packet{
		TS:      telescope.TS(ts),
		Src:     netmodel.MustAddr(src),
		Dst:     netmodel.MustAddr(dst),
		SrcPort: sport,
		DstPort: dport,
		Proto:   telescope.ProtoUDP,
		Size:    1200,
	}
}

// ForEach streams all records through fn.
func (r *reader) ForEach(fn func(*telescope.Packet) error) error {
	for {
		p, err := r.read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(p); err != nil {
			return err
		}
	}
}

// read returns the next packet as a fresh copy, safe to retain.
func (r *reader) read() (*telescope.Packet, error) {
	p, err := r.Next()
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Payload = bytes.Clone(p.Payload) // off the window
	return &cp, nil
}

// readInto decodes the next packet into p; p.Payload aliases the
// reader's window.
func (r *reader) readInto(p *telescope.Packet) error {
	q, err := r.Next()
	if err != nil {
		return err
	}
	*p = *q
	return nil
}

func TestStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	pkts := []*telescope.Packet{
		mkPacket(telescope.MeasurementStart, "1.2.3.4", "44.0.0.1", 1234, 443),
		{
			TS: telescope.TS(telescope.MeasurementStart.Add(time.Second)), Src: netmodel.MustAddr("142.250.0.9"),
			Dst: netmodel.MustAddr("44.1.2.3"), SrcPort: 443, DstPort: 9999,
			Proto: telescope.ProtoUDP, Size: 310, Payload: []byte{0xc0, 1, 2, 3, 4, 5},
		},
		{
			TS: telescope.TS(telescope.MeasurementStart.Add(2 * time.Second)), Src: netmodel.MustAddr("5.6.7.8"),
			Dst: netmodel.MustAddr("44.9.9.9"), Proto: telescope.ProtoTCP, Flags: telescope.FlagSYN | telescope.FlagACK, Size: 40,
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
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r := qsndReader(&buf)
	var got []*telescope.Packet
	if err := r.ForEach(func(p *telescope.Packet) error { got = append(got, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d packets", len(got))
	}
	for i := range pkts {
		a, b := pkts[i], got[i]
		if a.TS != b.TS || a.Src != b.Src || a.Dst != b.Dst || a.SrcPort != b.SrcPort ||
			a.DstPort != b.DstPort || a.Proto != b.Proto || a.Flags != b.Flags || a.Size != b.Size {
			t.Errorf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

func TestStoreRejectsGarbage(t *testing.T) {
	r := qsndReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if _, err := r.read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v", err)
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	if err := w.Write(mkPacket(telescope.MeasurementStart, "1.1.1.1", "44.0.0.1", 1, 443)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r2 := qsndReader(bytes.NewReader(trunc))
	if _, err := r2.read(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated err = %v", err)
	}
	// Empty stream yields EOF.
	r3 := qsndReader(bytes.NewReader(nil))
	if _, err := r3.read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	f := func(ts int64, src, dst uint32, sp, dp uint16, proto uint8, payload []byte) bool {
		if len(payload) > 1500 {
			payload = payload[:1500]
		}
		in := &telescope.Packet{
			TS: telescope.Timestamp(ts), Src: netmodel.Addr(src), Dst: netmodel.Addr(dst),
			SrcPort: sp, DstPort: dp, Proto: telescope.Proto(proto % 3),
			Size: uint16(len(payload)), Payload: payload,
		}
		var buf bytes.Buffer
		w := NewSink(&buf, FormatQSND)
		if err := w.Write(in); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out, err := qsndReader(&buf).read()
		if err != nil {
			return false
		}
		return out.TS == in.TS && out.Src == in.Src && out.Dst == in.Dst &&
			out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Proto == in.Proto && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// validTrace builds a small well-formed trace for corpus seeding.
func validTrace(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	pkts := []*telescope.Packet{
		mkPacket(telescope.MeasurementStart, "1.2.3.4", "44.0.0.1", 1234, 443),
		{
			TS: telescope.TS(telescope.MeasurementStart.Add(time.Second)), Src: netmodel.MustAddr("142.250.0.9"),
			Dst: netmodel.MustAddr("44.1.2.3"), SrcPort: 443, DstPort: 9999,
			Proto: telescope.ProtoUDP, Size: 6, Payload: []byte{0xc0, 1, 2, 3, 4, 5}, Weight: 0,
		},
		{
			TS: telescope.TS(telescope.MeasurementStart.Add(2 * time.Second)), Src: netmodel.MustAddr("5.6.7.8"),
			Dst: netmodel.MustAddr("44.9.9.9"), Proto: telescope.ProtoICMP, Flags: 3, Size: 56, Weight: 64,
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
		r := qsndReader(bytes.NewReader(data))
		var decoded []*telescope.Packet
		for {
			p, err := r.read()
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
		sr := qsndReader(bytes.NewReader(data))
		SetSalvage(sr, SalvagePolicy{SkipCorrupt: true})
		salvaged := 0
		for {
			_, err := sr.read()
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
		bp, berr, bsv := drainReader(qsndBuffer(data), SalvagePolicy{SkipCorrupt: true})
		op, oerr, osv := drainReader(qsndReader(iotest.OneByteReader(bytes.NewReader(data))), SalvagePolicy{SkipCorrupt: true})
		if len(bp) != salvaged || len(op) != salvaged || bsv != SourceSalvage(sr) || osv != bsv ||
			berr.Error() != oerr.Error() {
			t.Fatalf("arrivals disagree: stream %d records %+v; slice %d %+v (%v); one-byte %d %+v (%v)",
				salvaged, SourceSalvage(sr), len(bp), bsv, berr, len(op), osv, oerr)
		}
		// Accepted records re-encode canonically.
		var buf bytes.Buffer
		w := NewSink(&buf, FormatQSND)
		for _, p := range decoded {
			if err := w.Write(p); err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rr := qsndReader(&buf)
		for i, want := range decoded {
			got, err := rr.read()
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
	r := qsndReader(bytes.NewReader(data))
	_, err := r.read()
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "exceeds datagram size") || !strings.Contains(err.Error(), "offset 8") {
		t.Errorf("error lacks cause or offset: %v", err)
	}
}

func TestReaderTruncatedTailNamesOffset(t *testing.T) {
	data := validTrace(t)
	r := qsndReader(bytes.NewReader(data[:len(data)-3]))
	var err error
	for err == nil {
		_, err = r.read()
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
	_, err := qsndReader(bytes.NewReader(data)).read()
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version ErrBadTrace", err)
	}
}

func TestStoreWeightRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	p := mkPacket(telescope.MeasurementStart, "9.9.9.9", "44.0.0.7", 40001, 443)
	p.Weight = 1 << 20
	if err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := qsndReader(&buf).read()
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

func (f *failAfter) Write(b []byte) (int, error) {
	if f.seen+len(b) > f.n {
		return 0, errDiskFull
	}
	f.seen += len(b)
	return len(b), nil
}

func TestWriterStickyErrorAndDropCount(t *testing.T) {
	w := NewSink(&failAfter{n: 40}, FormatQSND)
	p := mkPacket(telescope.MeasurementStart, "1.1.1.1", "44.0.0.1", 1, 443)
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
	w := NewSink(&buf, FormatQSND)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Fatalf("empty trace is %d bytes, want the 8-byte header", buf.Len())
	}
	if _, err := qsndReader(&buf).read(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty trace read err = %v, want clean EOF", err)
	}
}

func TestReadIntoReusesPayload(t *testing.T) {
	data := validTrace(t)
	r := qsndReader(bytes.NewReader(data))
	var p telescope.Packet
	var caps []int
	for {
		if err := r.readInto(&p); err != nil {
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
