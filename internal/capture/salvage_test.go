package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"quicsand/internal/faultinject"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// salvagePackets builds n distinct UDP records covering the pcap
// writer's representable shapes.
func salvagePackets(n int) []*telescope.Packet {
	pkts := make([]*telescope.Packet, 0, n)
	for i := 0; i < n; i++ {
		payload := make([]byte, 6+i%9)
		for j := range payload {
			payload[j] = byte(0x40 + i)
		}
		pkts = append(pkts, &telescope.Packet{
			TS:  telescope.Timestamp(1700000000000 + int64(i)*1000),
			Src: netmodel.Addr(0x0a000000 + i), Dst: 0x2c000001,
			SrcPort: uint16(2000 + i), DstPort: 443,
			Proto: telescope.ProtoUDP, Size: uint16(len(payload)), Payload: payload,
		})
	}
	return pkts
}

// pcapRecordOffsets walks an LE µs pcap our writer emitted and returns
// every record's start offset.
func pcapRecordOffsets(t testing.TB, data []byte) []uint64 {
	t.Helper()
	var offs []uint64
	off := uint64(24)
	for off < uint64(len(data)) {
		offs = append(offs, off)
		incl := binary.LittleEndian.Uint32(data[off+8:])
		off += 16 + uint64(incl)
	}
	return offs
}

// drainPcap reads a streamed pcap to termination under pol.
func drainPcap(t testing.TB, data []byte, pol SalvagePolicy) ([]*telescope.Packet, error, SalvageStats) {
	t.Helper()
	pr, err := newPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("global header: %v", err)
	}
	return drainPcapReader(pr, pol)
}

// drainPcapReader reads pr to termination under pol, returning the
// recovered packets, the terminal error and the salvage ledger.
func drainPcapReader(pr *reader, pol SalvagePolicy) ([]*telescope.Packet, error, SalvageStats) {
	SetSalvage(pr, pol)
	var out []*telescope.Packet
	for {
		p, err := pr.Next()
		if err != nil {
			return out, err, SourceSalvage(pr)
		}
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		out = append(out, &q)
	}
}

func samePcapPacket(a, b *telescope.Packet) bool {
	return a.TS == b.TS && a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto && a.Flags == b.Flags && a.Size == b.Size &&
		a.Weight == b.Weight && bytes.Equal(a.Payload, b.Payload)
}

// TestPcapSalvageMidRecordFlip blows up one record's captured-length
// field mid-file: fail-fast aborts with the offset-annotated error,
// salvage recovers every frame outside the damaged span.
func TestPcapSalvageMidRecordFlip(t *testing.T) {
	pkts := salvagePackets(20)
	data, err := encodeCapture(pkts, FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	offs := pcapRecordOffsets(t, data)
	if len(offs) != len(pkts) {
		t.Fatalf("walked %d records, wrote %d", len(offs), len(pkts))
	}
	k := 12
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[offs[k]+8:], 0xFFFF0000) // incl > maxFrame

	got, ferr, _ := drainPcap(t, bad, SalvagePolicy{})
	if !errors.Is(ferr, ErrBadPcap) || !strings.Contains(ferr.Error(), "byte offset") {
		t.Fatalf("fail-fast err = %v, want offset-annotated ErrBadPcap", ferr)
	}
	if len(got) != k {
		t.Fatalf("fail-fast read %d frames before aborting, want %d", len(got), k)
	}

	got, serr, sv := drainPcap(t, bad, SalvagePolicy{SkipCorrupt: true})
	if !errors.Is(serr, io.EOF) {
		t.Fatalf("salvage terminal err = %v, want io.EOF", serr)
	}
	want := append(append([]*telescope.Packet(nil), pkts[:k]...), pkts[k+1:]...)
	if len(got) != len(want) {
		t.Fatalf("salvaged %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePcapPacket(got[i], want[i]) {
			t.Errorf("frame %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	if sv.CorruptRecords != 1 || sv.ResyncScans != 1 || sv.MaxLostRecords == 0 {
		t.Errorf("ledger = %+v, want one accounted span", sv)
	}
}

// TestPcapSalvageGarbageSplice splices foreign bytes between frames:
// the resync scan skips exactly the splice and every original frame
// survives.
func TestPcapSalvageGarbageSplice(t *testing.T) {
	pkts := salvagePackets(16)
	data, err := encodeCapture(pkts, FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	offs := pcapRecordOffsets(t, data)
	const spliceLen = 53
	bad := faultinject.Apply(data, faultinject.Fault{
		Kind: faultinject.Garbage, Offset: offs[7], Len: spliceLen, Seed: 11,
	})

	got, serr, sv := drainPcap(t, bad, SalvagePolicy{SkipCorrupt: true})
	if !errors.Is(serr, io.EOF) {
		t.Fatalf("terminal err = %v, want io.EOF", serr)
	}
	if len(got) != len(pkts) {
		t.Fatalf("salvaged %d frames, want all %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !samePcapPacket(got[i], pkts[i]) {
			t.Errorf("frame %d differs after splice:\n%+v\n%+v", i, got[i], pkts[i])
		}
	}
	if sv.CorruptRecords != 1 || sv.SalvagedBytes != spliceLen {
		t.Errorf("ledger = %+v, want 1 corrupt record and %d salvaged bytes", sv, spliceLen)
	}
}

// TestPcapSalvageTornTail truncates mid-frame: salvage yields every
// complete frame then clean EOF; fail-fast keeps the truncation error.
func TestPcapSalvageTornTail(t *testing.T) {
	pkts := salvagePackets(10)
	data, err := encodeCapture(pkts, FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	offs := pcapRecordOffsets(t, data)
	torn := data[:offs[len(offs)-1]+21]

	if _, ferr, _ := drainPcap(t, torn, SalvagePolicy{}); !errors.Is(ferr, ErrBadPcap) {
		t.Fatalf("fail-fast err = %v, want ErrBadPcap", ferr)
	}
	got, serr, sv := drainPcap(t, torn, SalvagePolicy{SkipCorrupt: true})
	if !errors.Is(serr, io.EOF) {
		t.Fatalf("terminal err = %v, want io.EOF", serr)
	}
	if len(got) != len(pkts)-1 {
		t.Fatalf("salvaged %d frames, want %d complete ones", len(got), len(pkts)-1)
	}
	for i := range got {
		if !samePcapPacket(got[i], pkts[i]) {
			t.Errorf("frame %d differs:\n%+v\n%+v", i, got[i], pkts[i])
		}
	}
	// 21 torn bytes over 16-byte headers ledger as floor(21/16)+1 = 2
	// worst-case lost records — the bound is conservative by design.
	if sv.CorruptRecords != 1 || sv.MaxLostRecords != 2 {
		t.Errorf("ledger = %+v, want 1 corrupt record and a loss bound of 2", sv)
	}
}

// TestPcapArrivalShapes is the pcap half of the arrival-shape table
// (telescope.TestBufferMatchesReader is the QSND half): the damage
// cases under fail-fast and salvage policies, through a slice window
// and every streamed arrival, must yield the same packets, the same
// error text — from the constructor for global-header damage — and the
// same salvage ledger.
func TestPcapArrivalShapes(t *testing.T) {
	data, err := encodeCapture(salvagePackets(20), FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	offs := pcapRecordOffsets(t, data)
	flip := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(flip[offs[12]+8:], 0xFFFF0000) // incl > maxFrame
	cases := map[string][]byte{
		"clean":           data,
		"mid-record-flip": flip,
		"garbage-splice": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.Garbage, Offset: offs[7], Len: 53, Seed: 11,
		}),
		"torn-tail":        data[:offs[len(offs)-1]+21],
		"torn-file-header": data[:11],
		"magic-flip": faultinject.Apply(data, faultinject.Fault{
			Kind: faultinject.BitFlip, Offset: 1, XorMask: 0x40,
		}),
	}
	type result struct {
		pkts []*telescope.Packet
		err  error
		sv   SalvageStats
	}
	drain := func(pr *reader, err error, pol SalvagePolicy) result {
		if err != nil {
			return result{err: err}
		}
		var r result
		r.pkts, r.err, r.sv = drainPcapReader(pr, pol)
		return r
	}
	for name, bad := range cases {
		for pname, pol := range map[string]SalvagePolicy{"fail-fast": {}, "salvage": {SkipCorrupt: true}} {
			t.Run(name+"/"+pname, func(t *testing.T) {
				pr, err := newReader(newSliceWindow(bad), FormatPcap)
				want := drain(pr, err, pol)
				for _, a := range faultinject.Arrivals() {
					pr, err := newPcapReader(a.Open(bad))
					got := drain(pr, err, pol)
					if len(got.pkts) != len(want.pkts) {
						t.Fatalf("%s decoded %d frames, slice %d", a.Name, len(got.pkts), len(want.pkts))
					}
					for i := range want.pkts {
						if !samePcapPacket(got.pkts[i], want.pkts[i]) {
							t.Errorf("frame %d differs:\n %s %+v\n slice %+v", i, a.Name, got.pkts[i], want.pkts[i])
						}
					}
					if got.err.Error() != want.err.Error() {
						t.Errorf("terminal errors differ:\n %s %q\n slice %q", a.Name, got.err, want.err)
					}
					if got.sv != want.sv {
						t.Errorf("salvage ledgers differ:\n %s %+v\n slice %+v", a.Name, got.sv, want.sv)
					}
				}
			})
		}
	}
}

// TestPcapOversizeFrame frames a record at the format's bound — a
// maxFrame-byte frame, sixteen times the window's initial buffer —
// between ordinary ones, through every arrival shape.
func TestPcapOversizeFrame(t *testing.T) {
	small := rawIPv4UDP("8.8.8.8", "44.3.2.1", 1, 443, []byte{1, 2, 3})
	big := append(rawIPv4UDP("8.8.4.4", "44.3.2.1", 2, 443, []byte{4, 5, 6}), make([]byte, maxFrame)...)[:maxFrame]
	data := writeForeignPcap(binary.LittleEndian, false, LinkRawIP, [][]byte{small, big, small})
	readers := map[string]func() (*reader, error){
		"slice": func() (*reader, error) { return newReader(newSliceWindow(data), FormatPcap) },
	}
	for _, a := range faultinject.Arrivals() {
		readers[a.Name] = func() (*reader, error) { return newPcapReader(a.Open(data)) }
	}
	for name, open := range readers {
		pr, err := open()
		if err != nil {
			t.Fatal(err)
		}
		got, err, sv := drainPcapReader(pr, SalvagePolicy{})
		if !errors.Is(err, io.EOF) || len(got) != 3 || sv != (SalvageStats{}) {
			t.Fatalf("%s: %d frames, err %v, ledger %+v", name, len(got), err, sv)
		}
		for i, want := range []struct {
			src     string
			payload []byte
		}{{"8.8.8.8", []byte{1, 2, 3}}, {"8.8.4.4", []byte{4, 5, 6}}, {"8.8.8.8", []byte{1, 2, 3}}} {
			if got[i].Src != netmodel.MustAddr(want.src) || !bytes.Equal(got[i].Payload, want.payload) {
				t.Errorf("%s: frame %d misdecoded: %+v", name, i, got[i])
			}
		}
	}
}

// TestScatterTransientRetry drives transient read failures under both
// scatter feeds and both containers: the source's window retries them per
// policy and counts each retry in its ledger — the scatter itself never
// retries — and without a budget the first failure is terminal.
func TestScatterTransientRetry(t *testing.T) {
	pkts := salvagePackets(40)
	for _, format := range []Format{FormatQSND, FormatPcap} {
		data, err := encodeCapture(pkts, format)
		if err != nil {
			t.Fatal(err)
		}
		// Two failing offsets, each behind a short-read span that stops the
		// window's buffer-sized reads there: two fills, retried separately.
		at := []uint64{uint64(len(data)) / 3, uint64(len(data)) * 2 / 3}
		open := func(pol SalvagePolicy) Source {
			src, err := NewSource(faultinject.NewReader(bytes.NewReader(data),
				faultinject.Fault{Kind: faultinject.ShortRead, Offset: at[0] - 1},
				faultinject.Fault{Kind: faultinject.Transient, Offset: at[0], Count: 2},
				faultinject.Fault{Kind: faultinject.ShortRead, Offset: at[1] - 1},
				faultinject.Fault{Kind: faultinject.Transient, Offset: at[1]}))
			if err != nil {
				t.Fatal(err)
			}
			SetSalvage(src, pol)
			return src
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/workers=%d", format, workers)
			src := open(SalvagePolicy{MaxRetries: 2, Sleep: func(time.Duration) {}})
			sc := NewScatter(src, workers, true)
			var n uint64
			drainScatter(sc, &n)
			if err := sc.Err(); err != nil {
				t.Fatalf("%s: scatter err = %v", label, err)
			}
			if n != uint64(len(pkts)) || sc.Packets() != n {
				t.Errorf("%s: %d packets emitted, %d scattered, want %d", label, n, sc.Packets(), len(pkts))
			}
			if sv := SourceSalvage(src); sv.TransientRetries != 3 {
				t.Errorf("%s: window retried %d times, want 3", label, sv.TransientRetries)
			}
			if tel := sc.Telemetry(); tel.TransientRetries != 0 {
				t.Errorf("%s: scatter counted %d retries of its own", label, tel.TransientRetries)
			}

			// One retry is one short of the first offset's two failures, and
			// no retry is one short of anything: terminal, with the error
			// the reader saw.
			for _, budget := range []int{1, 0} {
				src := open(SalvagePolicy{MaxRetries: budget, Sleep: func(time.Duration) {}})
				sc := NewScatter(src, workers, true)
				var n uint64
				drainScatter(sc, &n)
				var te *faultinject.TransientError
				if !errors.As(sc.Err(), &te) || te.Offset != at[0] {
					t.Errorf("%s: with %d retries err = %v, want the TransientError injected at byte %d", label, budget, sc.Err(), at[0])
				}
				if n >= uint64(len(pkts)) {
					t.Errorf("%s: with %d retries all %d packets arrived past the failure", label, budget, n)
				}
			}
		}
	}
}

// drainScatter runs every feed to completion, counting emissions.
func drainScatter(sc *Scatter, n *uint64) {
	feeds := sc.Feeds()
	done := make(chan struct{}, len(feeds))
	var counts = make([]uint64, len(feeds))
	for i, f := range feeds {
		i, f := i, f
		go func() {
			f(func(*telescope.Packet) { counts[i]++ })
			done <- struct{}{}
		}()
	}
	for range feeds {
		<-done
	}
	for _, c := range counts {
		*n += c
	}
}

// TestPcapHeaderTransientAtOpen holds a transient read failure inside
// the pcap global header to the retry budget, like one anywhere else: it
// is no corruption, so NewSource leaves the header to the first read,
// which retries it under the policy installed after open — through Next
// and through a Scatter alike. Without a budget the read's own error
// surfaces there, and a corrupt header still fails at open.
func TestPcapHeaderTransientAtOpen(t *testing.T) {
	pkts := salvagePackets(40)
	data, err := encodeCapture(pkts, FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	open := func(retries int) Source {
		// Two failures: open meets the first, the first read the second.
		src, err := NewSource(faultinject.NewReader(bytes.NewReader(data),
			faultinject.Fault{Kind: faultinject.Transient, Offset: 6, Count: 2}))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		SetSalvage(src, SalvagePolicy{MaxRetries: retries, Sleep: func(time.Duration) {}})
		return src
	}

	src := open(3)
	n := 0
	for {
		if _, err := src.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("Next after %d records: %v", n, err)
		}
		n++
	}
	if n != len(pkts) {
		t.Errorf("Next read %d records, want %d", n, len(pkts))
	}
	if sv := SourceSalvage(src); sv.TransientRetries != 1 || sv.CorruptRecords != 0 {
		t.Errorf("salvage ledger %+v, want one transient retry and no corruption", sv)
	}
	for _, workers := range []int{1, 4} {
		sc := NewScatter(open(3), workers, true)
		var got uint64
		drainScatter(sc, &got)
		if err := sc.Err(); err != nil || got != uint64(len(pkts)) {
			t.Errorf("workers=%d: scattered %d of %d records, err %v", workers, got, len(pkts), err)
		}
	}

	var te *faultinject.TransientError
	if _, err := open(0).Next(); !errors.As(err, &te) || errors.Is(err, ErrBadPcap) {
		t.Errorf("no retry budget: Next err = %v, want the transient read error itself", err)
	}
	bad := append([]byte(nil), data...)
	bad[20] = 0x7f // link type
	if _, err := NewSource(bytes.NewReader(bad)); !errors.Is(err, ErrBadPcap) {
		t.Errorf("corrupt global header: NewSource err = %v, want ErrBadPcap", err)
	}
}

// FuzzPcapReader pins the pcap decoder's total behavior on arbitrary
// bytes: it must terminate, never panic, and fail only with io.EOF or
// an ErrBadPcap carrying a byte offset; salvage mode must additionally
// recover at least the fail-fast prefix and end in a clean EOF.
func FuzzPcapReader(f *testing.F) {
	pkts := salvagePackets(6)
	valid, err := encodeCapture(pkts, FormatPcap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail
	f.Add(valid[:24])           // header only
	f.Add(valid[:11])           // truncated global header
	f.Add([]byte{})
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.Truncate, Offset: 24 + 16 + 3}))
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.BitFlip, Offset: 24 + 10, XorMask: 0xFF}))
	f.Add(faultinject.Apply(valid, faultinject.Fault{Kind: faultinject.Garbage, Offset: 24, Len: 29, Seed: 5}))

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := newPcapReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadPcap) {
				t.Fatalf("global-header error class: %v", err)
			}
			return
		}
		failFast := 0
		for {
			_, err := pr.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadPcap) {
					t.Fatalf("unexpected error class: %v", err)
				}
				if errors.Is(err, ErrBadPcap) && !strings.Contains(err.Error(), "byte offset") {
					t.Fatalf("corruption error without byte offset: %v", err)
				}
				break
			}
			failFast++
		}
		if pr.Offset() > uint64(len(data)) {
			t.Fatalf("offset %d beyond input %d", pr.Offset(), len(data))
		}

		spr, err := newPcapReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("global header accepted then rejected: %v", err)
		}
		SetSalvage(spr, SalvagePolicy{SkipCorrupt: true})
		salvaged := 0
		for {
			_, err := spr.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("salvage terminal error: %v", err)
				}
				break
			}
			salvaged++
		}
		if salvaged < failFast {
			t.Fatalf("salvage recovered %d frames, fail-fast got %d", salvaged, failFast)
		}
		// How the bytes arrive must not show: the slice window and a
		// one-byte-at-a-time stream account the damage identically.
		for name, w := range map[string]*window{
			"slice":    newSliceWindow(data),
			"one-byte": newWindow(iotest.OneByteReader(bytes.NewReader(data))),
		} {
			pr, err := newReader(w, FormatPcap)
			if err != nil {
				t.Fatalf("%s: global header accepted then rejected: %v", name, err)
			}
			got, _, sv := drainPcapReader(pr, SalvagePolicy{SkipCorrupt: true})
			if len(got) != salvaged || sv != SourceSalvage(spr) || pr.skipped != spr.skipped {
				t.Fatalf("%s: %d frames, %d skipped, %+v; stream %d, %d, %+v",
					name, len(got), pr.skipped, sv, salvaged, spr.skipped, SourceSalvage(spr))
			}
		}
	})
}
