package telescope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
)

// salvageTrace writes n distinct UDP records and returns the encoded
// trace, the packets, and every record's start offset in the stream.
func salvageTrace(t testing.TB, n int) (data []byte, pkts []*Packet, offs []uint64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	off := uint64(8) // file header
	for i := 0; i < n; i++ {
		payload := make([]byte, 5+i%7)
		for j := range payload {
			payload[j] = byte(i)
		}
		p := &Packet{
			TS:  TS(MeasurementStart.Add(time.Duration(i) * time.Second)),
			Src: netmodel.MustAddr("1.2.3.4") + netmodel.Addr(i), Dst: netmodel.MustAddr("44.0.0.1"),
			SrcPort: uint16(1000 + i), DstPort: 443,
			Proto: ProtoUDP, Size: uint16(len(payload)), Payload: payload,
		}
		offs = append(offs, off)
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		off += uint64(recHdrLen+2) + uint64(len(payload))
		pkts = append(pkts, p)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), pkts, offs
}

// drainSalvage reads data, streamed, to termination under pol.
func drainSalvage(data []byte, pol salvage.Policy) ([]*Packet, error, salvage.Stats) {
	return drainReader(NewReader(bytes.NewReader(data)), pol)
}

// samePacket compares every stored field.
func samePacket(a, b *Packet) bool {
	return a.TS == b.TS && a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto && a.Flags == b.Flags && a.Size == b.Size &&
		a.Weight == b.Weight && bytes.Equal(a.Payload, b.Payload)
}

// TestSalvageMidRecordFlip damages one record's proto byte mid-file:
// fail-fast keeps the historical terminal error, salvage mode recovers
// every record outside the damaged one bit-identically and accounts
// the span.
func TestSalvageMidRecordFlip(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 20)
	k := 11
	bad := faultinject.Apply(data, faultinject.Fault{
		Kind: faultinject.BitFlip, Offset: offs[k] + 20, XorMask: 0xFF,
	})

	got, err, _ := drainSalvage(bad, salvage.Policy{})
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("fail-fast err = %v, want ErrBadTrace", err)
	}
	if len(got) != k {
		t.Fatalf("fail-fast read %d records before aborting, want %d", len(got), k)
	}

	got, err, sv := drainSalvage(bad, salvage.Policy{SkipCorrupt: true})
	if !errors.Is(err, io.EOF) {
		t.Fatalf("salvage terminal err = %v, want io.EOF", err)
	}
	want := append(append([]*Packet(nil), pkts[:k]...), pkts[k+1:]...)
	if len(got) != len(want) {
		t.Fatalf("salvaged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePacket(got[i], want[i]) {
			t.Errorf("record %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	if sv.CorruptRecords != 1 || sv.ResyncScans != 1 {
		t.Errorf("ledger = %+v, want 1 corrupt record over 1 resync", sv)
	}
	if sv.MaxLostRecords == 0 || sv.SalvagedBytes == 0 {
		t.Errorf("ledger carries no loss bound: %+v", sv)
	}
}

// TestSalvageGarbageSplice inserts foreign bytes between two records:
// resync scans past the splice and recovers every original record, so
// only the ledger (not the data) records the damage.
func TestSalvageGarbageSplice(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 16)
	const spliceLen = 37
	bad := faultinject.Apply(data, faultinject.Fault{
		Kind: faultinject.Garbage, Offset: offs[9], Len: spliceLen, Seed: 7,
	})

	got, err, sv := drainSalvage(bad, salvage.Policy{SkipCorrupt: true})
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("salvaged %d records, want all %d (splice destroyed none)", len(got), len(pkts))
	}
	for i := range pkts {
		if !samePacket(got[i], pkts[i]) {
			t.Errorf("record %d differs after splice:\n%+v\n%+v", i, got[i], pkts[i])
		}
	}
	if sv.CorruptRecords != 1 || sv.SalvagedBytes != spliceLen {
		t.Errorf("ledger = %+v, want 1 corrupt record and %d salvaged bytes", sv, spliceLen)
	}
}

// TestSalvageTornTail truncates the stream mid-record: salvage yields
// every complete record then a clean EOF, where fail-fast reports the
// truncation as corruption.
func TestSalvageTornTail(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 12)
	torn := data[:offs[len(offs)-1]+13] // half of the last record

	if _, err, _ := drainSalvage(torn, salvage.Policy{}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("fail-fast err = %v, want ErrBadTrace", err)
	}

	got, err, sv := drainSalvage(torn, salvage.Policy{SkipCorrupt: true})
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if len(got) != len(pkts)-1 {
		t.Fatalf("salvaged %d records, want %d complete ones", len(got), len(pkts)-1)
	}
	for i := range got {
		if !samePacket(got[i], pkts[i]) {
			t.Errorf("record %d differs:\n%+v\n%+v", i, got[i], pkts[i])
		}
	}
	if sv.CorruptRecords != 1 || sv.MaxLostRecords != 1 {
		t.Errorf("ledger = %+v, want exactly one lost record", sv)
	}
}

// TestSalvageHeaderCorruptionStaysTerminal pins the gate: damage to
// the file header (magic or version) is never salvageable.
func TestSalvageHeaderCorruptionStaysTerminal(t *testing.T) {
	data, _, _ := salvageTrace(t, 4)
	for name, off := range map[string]uint64{"magic": 1, "version": 4} {
		bad := faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: off, XorMask: 0x40,
		})
		if _, err, _ := drainSalvage(bad, salvage.Policy{SkipCorrupt: true}); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s corruption under salvage: err = %v, want terminal ErrBadTrace", name, err)
		}
	}
}

// TestSalvageTransientRetries exercises the byte-level retry path: a
// reader surfacing injected Temporary() errors succeeds under a retry
// budget and counts each retry, and still fails without one.
func TestSalvageTransientRetries(t *testing.T) {
	data, pkts, offs := salvageTrace(t, 6)
	faults := []faultinject.Fault{
		{Kind: faultinject.Transient, Offset: offs[2], Count: 2},
		{Kind: faultinject.Transient, Offset: offs[4]},
	}

	r := NewReader(faultinject.NewReader(bytes.NewReader(data), faults...))
	var firstErr error
	for firstErr == nil {
		_, firstErr = r.Read()
	}
	var te *faultinject.TransientError
	if !errors.As(firstErr, &te) {
		t.Fatalf("without retries err = %v, want injected TransientError", firstErr)
	}

	r = NewReader(faultinject.NewReader(bytes.NewReader(data), faults...))
	r.SetSalvage(salvage.Policy{MaxRetries: 3, Sleep: func(time.Duration) {}})
	var got []*Packet
	for {
		p, err := r.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("with retries err = %v, want clean EOF", err)
			}
			break
		}
		got = append(got, p)
	}
	if len(got) != len(pkts) {
		t.Fatalf("recovered %d records, want %d", len(got), len(pkts))
	}
	if sv := r.Salvage(); sv.TransientRetries != 3 {
		t.Errorf("TransientRetries = %d, want 3", sv.TransientRetries)
	}
}

// TestSalvageErrorOffsetsUniform asserts the satellite contract: every
// corruption error names both the record index and the byte offset.
func TestSalvageErrorOffsetsUniform(t *testing.T) {
	data, _, offs := salvageTrace(t, 5)
	k := 3
	cases := map[string][]byte{
		"bad-proto": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: offs[k] + 20, XorMask: 0xFF,
		}),
		"oversize-payload": func() []byte {
			bad := append([]byte(nil), data...)
			binary.LittleEndian.PutUint16(bad[offs[k]+28:], 9999)
			return bad
		}(),
		"torn-tail": data[:offs[k]+9],
	}
	for name, bad := range cases {
		_, err, _ := drainSalvage(bad, salvage.Policy{})
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
			continue
		}
		msg := err.Error()
		if !contains(msg, "at record 3") || !contains(msg, "byte offset") {
			t.Errorf("%s: error lacks record index or byte offset: %v", name, err)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
