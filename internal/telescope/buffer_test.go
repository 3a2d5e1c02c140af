package telescope

// Arrival-shape tests for the QSND framer. There is one framer, so the
// only seam left is how the bytes reach its window: as one slice
// (NewBuffer, the memory-mapped path) or through an io.Reader in
// whatever pieces it delivers (NewReader). Every arrival must yield the
// same packets, the same terminal error text and the same salvage
// ledger, on clean and damaged stores alike.

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
)

// drainReader reads r to termination under pol, returning the
// recovered packets, the terminal error and the salvage ledger.
func drainReader(r *Reader, pol salvage.Policy) ([]*Packet, error, salvage.Stats) {
	r.SetSalvage(pol)
	var out []*Packet
	for {
		p, err := r.Read()
		if err != nil {
			return out, err, r.Salvage()
		}
		out = append(out, p)
	}
}

// TestBufferMatchesReader runs the damage table — clean, and damaged
// in every way the fault injector knows — under fail-fast and salvage
// policies through every arrival shape, with the slice window as the
// reference. (It keeps the name it had when Buffer and Reader were two
// framers held equal by this table.)
func TestBufferMatchesReader(t *testing.T) {
	data, _, offs := salvageTrace(t, 20)
	k := 11
	cases := map[string][]byte{
		"clean": data,
		"mid-record-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: offs[k] + 20, XorMask: 0xFF,
		}),
		"garbage-splice": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.Garbage, Offset: offs[9], Len: 37, Seed: 7,
		}),
		"torn-tail":        data[:offs[len(offs)-1]+13],
		"torn-file-header": data[:5],
		"magic-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: 1, XorMask: 0x40,
		}),
		"version-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: 4, XorMask: 0x40,
		}),
	}
	policies := map[string]salvage.Policy{
		"fail-fast": {},
		"salvage":   {SkipCorrupt: true},
	}
	for name, bad := range cases {
		for pname, pol := range policies {
			t.Run(name+"/"+pname, func(t *testing.T) {
				bp, berr, bsv := drainReader(NewBuffer(bad), pol)
				for _, a := range faultinject.Arrivals() {
					rp, rerr, rsv := drainReader(NewReader(a.Open(bad)), pol)
					if len(rp) != len(bp) {
						t.Fatalf("%s decoded %d records, slice %d", a.Name, len(rp), len(bp))
					}
					for i := range rp {
						if !samePacket(rp[i], bp[i]) {
							t.Errorf("record %d differs:\n %s %+v\n slice %+v", i, a.Name, rp[i], bp[i])
						}
					}
					if errors.Is(rerr, io.EOF) != errors.Is(berr, io.EOF) {
						t.Fatalf("terminal errors disagree: %s %v, slice %v", a.Name, rerr, berr)
					}
					if !errors.Is(rerr, io.EOF) && rerr.Error() != berr.Error() {
						t.Errorf("error text differs:\n %s %q\n slice %q", a.Name, rerr, berr)
					}
					if rsv != bsv {
						t.Errorf("salvage ledgers differ:\n %s %+v\n slice %+v", a.Name, rsv, bsv)
					}
				}
			})
		}
	}
}

// TestBufferSpanFraming pins the zero-copy contract: over a slice,
// TakeSpan returns a subslice of the input covering exactly the framed
// record, and DecodeRecord over that span reproduces ReadInto.
func TestBufferSpanFraming(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 10)
	b := NewBuffer(data)
	for i := range pkts {
		spanLen, src, err := b.FrameNext()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		span := b.TakeSpan(nil)
		if len(span) != spanLen {
			t.Fatalf("record %d: span %d bytes, framed %d", i, len(span), spanLen)
		}
		if &span[0] != &data[offs[i]] {
			t.Fatalf("record %d: span does not alias the store", i)
		}
		var p Packet
		DecodeRecord(span, &p)
		if p.Src != src {
			t.Errorf("record %d: framed src %v, decoded %v", i, src, p.Src)
		}
		if !samePacket(&p, pkts[i]) {
			t.Errorf("record %d differs:\n%+v\n%+v", i, &p, pkts[i])
		}
	}
	if _, _, err := b.FrameNext(); !errors.Is(err, io.EOF) {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
}

// TestReaderOversizeRecord frames a record larger than the window's
// initial buffer — the format's maximum, a 65 535-byte payload — between
// ordinary ones, through every arrival shape.
func TestReaderOversizeRecord(t *testing.T) {
	mk := func(n int, fill byte) *Packet {
		return &Packet{
			TS: TS(MeasurementStart.Add(time.Second)), Src: netmodel.MustAddr("1.2.3.4"),
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 1, DstPort: 443, Proto: ProtoUDP,
			Size: uint16(n), Payload: bytes.Repeat([]byte{fill}, n),
		}
	}
	want := []*Packet{mk(9, 1), mk(0xffff, 2), mk(11, 3)}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range want {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	readers := map[string]*Reader{"slice": NewBuffer(buf.Bytes())}
	for _, a := range faultinject.Arrivals() {
		readers[a.Name] = NewReader(a.Open(buf.Bytes()))
	}
	for name, r := range readers {
		got, err, sv := drainReader(r, salvage.Policy{})
		if !errors.Is(err, io.EOF) || len(got) != len(want) || sv != (salvage.Stats{}) {
			t.Fatalf("%s: %d records, err %v, ledger %+v", name, len(got), err, sv)
		}
		for i := range want {
			if !samePacket(got[i], want[i]) {
				t.Errorf("%s: record %d differs", name, i)
			}
		}
	}
}

// TestReaderTransientMidRecord pins the window's re-entry: a transient
// error that outlives the retry budget (none here) and arrives after
// part of a record has been read passes through unsticky with Offset
// still at the record start, and a caller that calls again gets that
// record whole.
func TestReaderTransientMidRecord(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 6)
	k := 3
	mid := offs[k] + 17
	// The short-read span makes reads stop at mid, so the transient
	// error fires there and not on the first buffer-sized read.
	fr := faultinject.NewReader(bytes.NewReader(data),
		faultinject.Fault{Kind: faultinject.ShortRead, Offset: mid - 4, Len: 8},
		faultinject.Fault{Kind: faultinject.Transient, Offset: mid})
	r := NewReader(fr)
	var p Packet
	for i := 0; i < k; i++ {
		if err := r.ReadInto(&p); err != nil || !samePacket(&p, pkts[i]) {
			t.Fatalf("record %d before the fault: %v", i, err)
		}
	}
	var te *faultinject.TransientError
	if err := r.ReadInto(&p); !errors.As(err, &te) {
		t.Fatalf("mid-record err = %v, want the injected TransientError", err)
	}
	if fr.Offset() != mid {
		t.Fatalf("fault fired with %d bytes served, want %d (mid-record)", fr.Offset(), mid)
	}
	if r.Offset() != offs[k] {
		t.Fatalf("offset = %d after the failed read, want the record start %d", r.Offset(), offs[k])
	}
	for i := k; i < len(pkts); i++ {
		if err := r.ReadInto(&p); err != nil || !samePacket(&p, pkts[i]) {
			t.Fatalf("record %d after the retry: %v", i, err)
		}
	}
}
