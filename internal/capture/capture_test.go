package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"quicsand/internal/engine"
	"quicsand/internal/faultinject"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

func tsAt(d time.Duration) telescope.Timestamp {
	return telescope.TS(telescope.MeasurementStart.Add(d))
}

// samplePackets covers every protocol and payload shape the generator
// emits: QUIC request with payload, metadata-only thinned research
// record with weight, TCP and ICMP backscatter, QUIC response.
func samplePackets() []*telescope.Packet {
	return []*telescope.Packet{
		{
			TS: tsAt(0), Src: netmodel.MustAddr("1.2.3.4"), Dst: netmodel.MustAddr("44.0.0.1"),
			SrcPort: 5555, DstPort: 443, Proto: telescope.ProtoUDP,
			Size: 5, Payload: []byte{0xc3, 0x00, 0x00, 0x00, 0x01},
		},
		{
			TS: tsAt(time.Second), Src: netmodel.MustAddr("131.159.0.9"), Dst: netmodel.MustAddr("44.7.7.7"),
			SrcPort: 40001, DstPort: 443, Proto: telescope.ProtoUDP,
			Size: 1200, Weight: 64, // thinned research record, no payload
		},
		{
			TS: tsAt(2 * time.Second), Src: netmodel.MustAddr("9.9.9.9"), Dst: netmodel.MustAddr("44.1.1.1"),
			SrcPort: 443, DstPort: 7777, Proto: telescope.ProtoTCP,
			Flags: telescope.FlagSYN | telescope.FlagACK, Size: 40,
		},
		{
			TS: tsAt(2500 * time.Millisecond), Src: netmodel.MustAddr("9.9.9.9"), Dst: netmodel.MustAddr("44.1.1.2"),
			Proto: telescope.ProtoICMP, Flags: 3, Size: 56,
		},
		{
			TS: tsAt(3 * time.Second), Src: netmodel.MustAddr("142.250.0.1"), Dst: netmodel.MustAddr("44.2.2.2"),
			SrcPort: 443, DstPort: 50123, Proto: telescope.ProtoUDP,
			Size: 4, Payload: []byte{0x40, 0x01, 0x02, 0x03},
		},
		{
			// TCP and ICMP records may legally carry payload bytes in
			// the store; the pcap round trip must keep them too.
			TS: tsAt(4 * time.Second), Src: netmodel.MustAddr("9.9.9.10"), Dst: netmodel.MustAddr("44.1.1.3"),
			SrcPort: 80, DstPort: 7778, Proto: telescope.ProtoTCP,
			Flags: telescope.FlagRST, Size: 43, Payload: []byte{0xaa, 0xbb, 0xcc},
		},
		{
			TS: tsAt(5 * time.Second), Src: netmodel.MustAddr("9.9.9.11"), Dst: netmodel.MustAddr("44.1.1.4"),
			Proto: telescope.ProtoICMP, Flags: 0, Size: 60, Payload: []byte{1, 2, 3, 4},
		},
	}
}

func samePacket(a, b *telescope.Packet) bool {
	return a.TS == b.TS && a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto && a.Flags == b.Flags && a.Size == b.Size &&
		a.Weight == b.Weight && bytes.Equal(a.Payload, b.Payload)
}

func drain(t *testing.T, src Source) []*telescope.Packet {
	t.Helper()
	var out []*telescope.Packet
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		cp := *p
		cp.Payload = append([]byte(nil), p.Payload...)
		if len(p.Payload) == 0 {
			cp.Payload = nil
		}
		out = append(out, &cp)
	}
}

func TestPcapRoundTripPreservesEveryField(t *testing.T) {
	var buf bytes.Buffer
	w := NewSink(&buf, FormatPcap)
	pkts := samplePackets()
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(pkts)) {
		t.Errorf("count = %d", w.Count())
	}

	r, err := newPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !samePacket(pkts[i], got[i]) {
			t.Errorf("record %d:\nwrote %+v\nread  %+v", i, pkts[i], got[i])
		}
	}
	if r.skipped != 0 {
		t.Errorf("skipped %d own frames", r.skipped)
	}
}

func TestPcapRoundTripProperty(t *testing.T) {
	f := func(off uint32, src, dst uint32, sp, dp uint16, proto, flags uint8, weight uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		in := &telescope.Packet{
			TS:  tsAt(time.Duration(off) * time.Millisecond),
			Src: netmodel.Addr(src), Dst: netmodel.Addr(dst),
			SrcPort: sp, DstPort: dp,
			Proto: telescope.Proto(proto % 3), Flags: flags,
			Size: uint16(len(payload)), Weight: weight, Payload: payload,
		}
		if in.Proto != telescope.ProtoUDP {
			// TCP/ICMP payloads survive too; Size stays ≥ payloadLen
			// (the store invariant the reader enforces).
			in.Size = 60 + uint16(len(payload))
		}
		if len(payload) == 0 {
			in.Payload = nil
		}
		var buf bytes.Buffer
		w := NewSink(&buf, FormatPcap)
		if err := w.Write(in); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := newPcapReader(&buf)
		if err != nil {
			return false
		}
		out, err := r.Next()
		if err != nil {
			return false
		}
		return samePacket(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPcapICMPChecksumCoversPayload validates exported ICMP frames
// the way Wireshark would: the RFC 792 checksum spans header and
// payload (odd lengths padded), so sums must fold to 0xffff.
func TestPcapICMPChecksumCoversPayload(t *testing.T) {
	for _, payload := range [][]byte{nil, {7}, {1, 2, 3}, bytes.Repeat([]byte{0xee}, 56)} {
		var buf bytes.Buffer
		w := NewSink(&buf, FormatPcap)
		p := &telescope.Packet{
			TS: tsAt(time.Second), Src: netmodel.MustAddr("9.9.9.9"), Dst: netmodel.MustAddr("44.1.1.2"),
			SrcPort: 0x1234, DstPort: 0x5678, Proto: telescope.ProtoICMP,
			Flags: 0, Size: uint16(28 + len(payload)), Payload: payload,
		}
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()[24+16:] // global + record header
		icmp := frame[34 : 34+8+len(payload)]
		if got := foldChecksum(onesSum(icmp, 0)); got != 0 {
			t.Errorf("payload len %d: ICMP checksum does not verify (residual %#04x)", len(payload), got)
		}
	}
}

// TestQSNDPcapQSNDLossless is the convert invariant on synthetic
// records; the full generated month version lives in the root
// package's trace tests.
func TestQSNDPcapQSNDLossless(t *testing.T) {
	var qsnd1 bytes.Buffer
	w := NewSink(&qsnd1, FormatQSND)
	for _, p := range samplePackets() {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), qsnd1.Bytes()...)

	var pcap bytes.Buffer
	src, err := NewSource(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(&pcap, FormatPcap)
	if _, err := Copy(sink, src); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var qsnd2 bytes.Buffer
	src2, err := NewSource(bytes.NewReader(pcap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f := SourceFormat(src2); f != FormatPcap {
		t.Fatalf("sniffed %v for pcap input", f)
	}
	sink2 := NewSink(&qsnd2, FormatQSND)
	n, err := Copy(sink2, src2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(samplePackets())) {
		t.Fatalf("converted %d records", n)
	}
	if !bytes.Equal(orig, qsnd2.Bytes()) {
		t.Error("QSND → pcap → QSND not byte-identical")
	}
}

// writeForeignPcap builds a pcap with the given link type and byte
// order, as a third-party tool would: no metadata trailer.
func writeForeignPcap(order binary.ByteOrder, nanos bool, link uint32, frames [][]byte) []byte {
	var buf bytes.Buffer
	gh := make([]byte, 24)
	magic := uint32(pcapMagicUsec)
	if nanos {
		magic = pcapMagicNsec
	}
	order.PutUint32(gh[0:], magic)
	order.PutUint16(gh[4:], 2)
	order.PutUint16(gh[6:], 4)
	order.PutUint32(gh[16:], 65535)
	order.PutUint32(gh[20:], link)
	buf.Write(gh)
	for i, f := range frames {
		rh := make([]byte, 16)
		order.PutUint32(rh[0:], uint32(1617235200+i)) // 2021-04-01
		if nanos {
			order.PutUint32(rh[4:], 500_000_000)
		} else {
			order.PutUint32(rh[4:], 500_000)
		}
		order.PutUint32(rh[8:], uint32(len(f)))
		order.PutUint32(rh[12:], uint32(len(f)))
		buf.Write(rh)
		buf.Write(f)
	}
	return buf.Bytes()
}

// rawIPv4UDP builds a bare IPv4/UDP datagram (no link header).
func rawIPv4UDP(src, dst string, sp, dp uint16, payload []byte) []byte {
	b := make([]byte, 0, 28+len(payload))
	total := 28 + len(payload)
	b = append(b, 0x45, 0, byte(total>>8), byte(total), 0, 1, 0, 0, 64, 17, 0, 0)
	b = binary.BigEndian.AppendUint32(b, uint32(netmodel.MustAddr(src)))
	b = binary.BigEndian.AppendUint32(b, uint32(netmodel.MustAddr(dst)))
	b = binary.BigEndian.AppendUint16(b, sp)
	b = binary.BigEndian.AppendUint16(b, dp)
	b = binary.BigEndian.AppendUint16(b, uint16(8+len(payload)))
	b = append(b, 0, 0)
	return append(b, payload...)
}

func TestPcapReaderLinkTypes(t *testing.T) {
	ip := rawIPv4UDP("8.8.8.8", "44.3.2.1", 12345, 443, []byte{0xc0, 1, 2})

	eth := append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00}, ip...)
	sll := append(make([]byte, 16), ip...)
	binary.BigEndian.PutUint16(sll[14:], 0x0800)
	vlan := append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x81, 0x00, 0x00, 0x07, 0x08, 0x00}, ip...)

	cases := []struct {
		name  string
		link  uint32
		frame []byte
		order binary.ByteOrder
		nanos bool
	}{
		{"ethernet-le-usec", LinkEthernet, eth, binary.LittleEndian, false},
		{"ethernet-be-usec", LinkEthernet, eth, binary.BigEndian, false},
		{"ethernet-le-nsec", LinkEthernet, eth, binary.LittleEndian, true},
		{"ethernet-vlan", LinkEthernet, vlan, binary.LittleEndian, false},
		{"linux-sll", LinkLinuxSLL, sll, binary.BigEndian, false},
		{"raw-ip", LinkRawIP, ip, binary.LittleEndian, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := writeForeignPcap(tc.order, tc.nanos, tc.link, [][]byte{tc.frame})
			r, err := newPcapReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if p.Src != netmodel.MustAddr("8.8.8.8") || p.Dst != netmodel.MustAddr("44.3.2.1") {
				t.Errorf("addresses: %v → %v", p.Src, p.Dst)
			}
			if p.SrcPort != 12345 || p.DstPort != 443 || p.Proto != telescope.ProtoUDP {
				t.Errorf("ports/proto: %+v", p)
			}
			if !bytes.Equal(p.Payload, []byte{0xc0, 1, 2}) || p.Size != 3 {
				t.Errorf("payload/size: %v %d", p.Payload, p.Size)
			}
			if want := telescope.Timestamp(1617235200_500); p.TS != want {
				t.Errorf("ts = %d, want %d", p.TS, want)
			}
			if _, err := r.Next(); !errors.Is(err, io.EOF) {
				t.Errorf("tail err = %v", err)
			}
		})
	}
}

func TestPcapReaderSkipsUnrepresentable(t *testing.T) {
	ip := rawIPv4UDP("8.8.8.8", "44.3.2.1", 12345, 443, nil)
	arp := append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x06}, make([]byte, 28)...)
	short := []byte{0x45}
	frag := rawIPv4UDP("8.8.8.8", "44.3.2.1", 1, 2, nil)
	binary.BigEndian.PutUint16(frag[6:], 0x00ff) // later fragment
	sctp := rawIPv4UDP("8.8.8.8", "44.3.2.1", 1, 2, nil)
	sctp[9] = 132

	frames := [][]byte{
		arp,
		append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00}, short...),
		append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00}, frag...),
		append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00}, sctp...),
		append([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x08, 0x00}, ip...),
	}
	r, err := newPcapReader(bytes.NewReader(writeForeignPcap(binary.LittleEndian, false, LinkEthernet, frames)))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
	if len(got) != 1 || got[0].DstPort != 443 {
		t.Fatalf("decoded %d packets: %+v", len(got), got)
	}
	if r.skipped != 4 {
		t.Errorf("skipped = %d, want 4", r.skipped)
	}
}

func TestPcapReaderRejectsCorruption(t *testing.T) {
	if _, err := newPcapReader(bytes.NewReader([]byte{1, 2, 3})); !errors.Is(err, ErrBadPcap) {
		t.Errorf("short header err = %v", err)
	}
	if _, err := newPcapReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrBadPcap) {
		t.Errorf("zero magic err = %v", err)
	}
	bad := writeForeignPcap(binary.LittleEndian, false, 147, nil) // LINKTYPE_USER0
	if _, err := newPcapReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadPcap) {
		t.Errorf("link type err = %v", err)
	}
	// Truncated frame body.
	data := writeForeignPcap(binary.LittleEndian, false, LinkRawIP,
		[][]byte{rawIPv4UDP("1.1.1.1", "44.0.0.1", 1, 443, nil)})
	r, err := newPcapReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrBadPcap) {
		t.Errorf("truncated frame err = %v", err)
	}
	// Insane captured length.
	var huge bytes.Buffer
	huge.Write(writeForeignPcap(binary.LittleEndian, false, LinkRawIP, nil))
	rh := make([]byte, 16)
	binary.LittleEndian.PutUint32(rh[8:], maxFrame+1)
	huge.Write(rh)
	r2, err := newPcapReader(&huge)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Next(); !errors.Is(err, ErrBadPcap) {
		t.Errorf("oversize frame err = %v", err)
	}
}

func TestFormatDetection(t *testing.T) {
	var qsnd bytes.Buffer
	w := NewSink(&qsnd, FormatQSND)
	if err := w.Write(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if src, err := NewSource(bytes.NewReader(qsnd.Bytes())); err != nil {
		t.Fatal(err)
	} else if f := SourceFormat(src); f != FormatQSND {
		t.Errorf("sniffed %v for qsnd", f)
	}
	if _, err := NewSource(bytes.NewReader([]byte("not a capture file"))); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("foreign err = %v", err)
	}
	if _, err := NewSource(bytes.NewReader(nil)); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("empty err = %v", err)
	}
	if f := FormatForPath("month.pcap"); f != FormatPcap {
		t.Errorf("pcap path → %v", f)
	}
	if f := FormatForPath("month.qsnd"); f != FormatQSND {
		t.Errorf("qsnd path → %v", f)
	}
	if FormatPcap.String() != "pcap" || FormatQSND.String() != "qsnd" || FormatUnknown.String() != "unknown" {
		t.Error("format strings")
	}
}

// TestScatterShardsByAddressInOrder pins the replay sharding
// invariant: every packet lands on ibr.ShardOf(src) and per-shard
// order is the stored order — at one shard and at several, over a
// streamed source (spans copied into batch arenas) and a stable one
// (spans lent), with and without recycling. It also pins who owns the
// packet memory: recycling, every packet of a shard lives in that shard's
// one slab; not recycling, an emitted pointer stays good after the run
// (what a trace tap, which buffers pointers, relies on).
func TestScatterShardsByAddressInOrder(t *testing.T) {
	var pkts []*telescope.Packet
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	for i := 0; i < 5000; i++ {
		pkts = append(pkts, &telescope.Packet{
			TS:  tsAt(time.Duration(i) * time.Millisecond),
			Src: netmodel.Addr(0x01010101 + uint32(i%37)*0x11),
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: uint16(i), DstPort: 443,
			Proto: telescope.ProtoUDP, Size: 4, Payload: payload,
		})
	}
	data := qsndBytes(t, pkts)
	for name, open := range map[string]func() (Source, error){
		"streamed": func() (Source, error) { return NewSource(bytes.NewReader(data)) },
		"stable":   func() (Source, error) { return newQSNDBuffer(data) },
	} {
		for _, workers := range []int{1, 3, 8} {
			for _, recycle := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/recycle=%v", name, workers, recycle)
				src, err := open()
				if err != nil {
					t.Fatal(err)
				}
				if src.(SpanSource).SpanStable() != (name == "stable") {
					t.Fatalf("%s: SpanStable() = %v", label, name != "stable")
				}
				sc := NewScatter(src, workers, recycle)
				got := make([][]telescope.Packet, workers)
				kept := make([][]*telescope.Packet, workers)
				engine.Run(engine.Config{Workers: workers}, sc.Feeds(),
					func(shard int, p *telescope.Packet) bool {
						if !bytes.Equal(p.Payload, payload) {
							t.Errorf("%s: payload corrupted on shard %d", label, shard)
						}
						cp := *p
						cp.Payload = append([]byte(nil), p.Payload...)
						got[shard] = append(got[shard], cp)
						kept[shard] = append(kept[shard], p)
						return false
					}, nil)
				if err := sc.Err(); err != nil {
					t.Fatal(err)
				}
				if sc.Packets() != uint64(len(pkts)) {
					t.Fatalf("%s: scattered %d packets, want %d", label, sc.Packets(), len(pkts))
				}
				idx := make([]int, workers)
				for _, want := range pkts {
					k := ibr.ShardOf(want.Src, workers)
					sh := got[k]
					if idx[k] >= len(sh) {
						t.Fatalf("%s: shard %d ran out of packets", label, k)
					}
					p := sh[idx[k]]
					idx[k]++
					if p.TS != want.TS || p.Src != want.Src || p.SrcPort != want.SrcPort {
						t.Fatalf("%s: shard %d out of order", label, k)
					}
				}
				for k := range got {
					if recycle {
						addrs := make(map[*telescope.Packet]struct{})
						for _, p := range kept[k] {
							addrs[p] = struct{}{}
						}
						if len(addrs) > scatterBatch {
							t.Errorf("%s: shard %d emitted %d packets from %d distinct addresses, want one slab (≤ %d)",
								label, k, len(kept[k]), len(addrs), scatterBatch)
						}
						continue
					}
					for j, p := range kept[k] {
						if !samePacket(p, &got[k][j]) {
							t.Fatalf("%s: shard %d packet %d changed after its sink call: %+v, emitted as %+v",
								label, k, j, *p, got[k][j])
						}
					}
				}
			}
		}
	}
}

// limitSource yields at most left records from src, then a clean
// io.EOF: a Next-only source.
type limitSource struct {
	src  Source
	left uint64
}

func (l *limitSource) Next() (*telescope.Packet, error) {
	if l.left == 0 {
		return nil, io.EOF
	}
	p, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	l.left--
	return p, nil
}

// TestScatterNeedsSpansToShard pins what a Next-only source gets at any
// shard count, one included: nothing delivered, and an Err naming the
// source's type (there is no second, packet-copying feed).
func TestScatterNeedsSpansToShard(t *testing.T) {
	data := qsndBytes(t, salvagePackets(40))
	for _, workers := range []int{1, 4} {
		src, err := NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScatter(&limitSource{src: src, left: 25}, workers, true)
		var n uint64
		drainScatter(sc, &n)
		if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "*capture.limitSource frames no spans") {
			t.Errorf("workers=%d: err = %v, want the one naming *capture.limitSource", workers, err)
		}
		if n != 0 || sc.Packets() != 0 {
			t.Errorf("workers=%d: %d packets emitted, %d scattered from an unshardable source", workers, n, sc.Packets())
		}
	}
}

// TestScatterFreeStack pins that a returned batch is never dropped: more
// batches than any channel depth held come back as the same pointers, a
// warmed put/take cycle allocates nothing, and with several shards
// putting while the reader takes, each batch is handed out exactly once.
func TestScatterFreeStack(t *testing.T) {
	var f freeStack
	if b := f.take(); b != nil {
		t.Fatalf("empty stack handed out %p", b)
	}
	const k = 64
	put := make(map[*batch]bool, k)
	for i := 0; i < k; i++ {
		b := new(batch)
		put[b] = true
		f.put(b)
	}
	if avg := testing.AllocsPerRun(100, func() { f.put(f.take()) }); avg != 0 {
		t.Errorf("warmed take+put: %.2f allocs, want 0", avg)
	}
	for i := 0; i < k; i++ {
		b := f.take()
		if !put[b] {
			t.Fatalf("take %d returned %p: not a batch that was put, or one already taken", i, b)
		}
		delete(put, b)
	}
	if b := f.take(); b != nil {
		t.Fatalf("drained stack handed out %p", b)
	}

	const putters, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < putters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.put(new(batch))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := make(map[*batch]bool, putters*each)
	for putting := true; putting; {
		select {
		case <-done:
			putting = false // one last sweep below takes what is left
		default:
		}
		for b := f.take(); b != nil; b = f.take() {
			if seen[b] {
				t.Fatalf("batch %p taken twice", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != putters*each {
		t.Errorf("took %d batches, %d were put", len(seen), putters*each)
	}
}

// TestScatterPacedFreeStack pins the paced take: it lets the reader
// allocate while some shard has no batch in flight, waits while every
// shard has one, and a put ends the wait with the batch put.
func TestScatterPacedFreeStack(t *testing.T) {
	var f freeStack
	f.pace(2)
	b0, b1 := new(batch), new(batch)
	if b := f.take(); b != nil {
		t.Fatalf("empty stack handed out %p", b)
	}
	f.sent(0, b0)
	if b := f.take(); b != nil {
		t.Fatalf("with shard 1 starved, take returned %p, want nil", b)
	}
	f.sent(1, b1)
	got := make(chan *batch)
	go func() { got <- f.take() }()
	select {
	case b := <-got:
		t.Fatalf("with every shard holding a batch, take returned %p at once", b)
	case <-time.After(20 * time.Millisecond):
	}
	f.put(b1)
	if b := <-got; b != b1 {
		t.Fatalf("take returned %p, want the batch put (%p)", b, b1)
	}
	if b := f.take(); b != nil {
		t.Fatalf("with shard 1 starved again, take returned %p, want nil", b)
	}
}

// TestScatterPacedUnderTap runs a paced recycling scatter of a stable
// capture through a tapped engine at workers 1, 3 and 8. The stream
// alternates runs of one source, which starve every other shard, with
// stretches that interleave all of them, so the reader both allocates
// and waits while the tap holds the shards to the merge. The run must
// end, and the tap must see every record once in stored order. Over one
// shard the reader waits for the shard's one batch each time it needs
// another, so a single batch circulates.
func TestScatterPacedUnderTap(t *testing.T) {
	var pkts []*telescope.Packet
	for i := 0; i < 60000; i++ {
		src := uint32(i % 37)
		if (i/3000)%2 == 1 {
			src = uint32(i / 3000 % 37) // a run of one source
		}
		pkts = append(pkts, &telescope.Packet{
			TS:  tsAt(time.Duration(i) * time.Millisecond),
			Src: netmodel.Addr(0x01010101 + src*0x11), Dst: netmodel.MustAddr("44.0.0.1"),
			SrcPort: uint16(i), DstPort: 443, Proto: telescope.ProtoUDP,
		})
	}
	data := qsndBytes(t, pkts)
	for _, workers := range []int{1, 3, 8} {
		src, err := newQSNDBuffer(data)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScatter(src, workers, true)
		sc.Pace()
		n, wrong := 0, -1
		engine.Run(engine.Config{Workers: workers}, sc.Feeds(),
			func(int, *telescope.Packet) bool { return true },
			&engine.Tap{Sink: func(p *telescope.Packet) {
				if wrong < 0 && (n >= len(pkts) || p.TS != pkts[n].TS || p.SrcPort != pkts[n].SrcPort) {
					wrong = n
				}
				n++
			}})
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if wrong >= 0 {
			t.Errorf("workers=%d: tapped record %d is not the stored one", workers, wrong)
		}
		in := sc.Telemetry()
		t.Logf("workers=%d: %d batches, %d allocated", workers, in.Batches, in.BatchAllocs)
		if n != len(pkts) || in.BatchAllocs+in.BatchReuses != in.Batches {
			t.Errorf("workers=%d: tapped %d of %d records; %d batches allocated + %d reused of %d",
				workers, n, len(pkts), in.BatchAllocs, in.BatchReuses, in.Batches)
		}
		if workers == 1 && in.BatchAllocs != 1 {
			t.Errorf("one shard: the paced reader allocated %d batches, want 1", in.BatchAllocs)
		}
	}
}

// TestPumpQueueReusesStorage: pump's queue allocates only while its
// backlog grows. Bursts of 64 pushes, each drained back to 8, allocate as
// often over 100 000 batches as over 1 000, and every pop takes the
// oldest batch.
func TestPumpQueueReusesStorage(t *testing.T) {
	bs := make([]batch, 100)
	run := func(ops int) float64 {
		return testing.AllocsPerRun(5, func() {
			var q batchRing
			for pushed, popped := 0, 0; pushed < ops; {
				for k := 0; k < 64; k++ {
					q.push(&bs[pushed%len(bs)])
					pushed++
				}
				for ; q.n > 8; popped++ {
					if q.buf[q.head] != &bs[popped%len(bs)] {
						t.Fatalf("pop %d is not the oldest batch", popped)
					}
					q.pop()
				}
			}
		})
	}
	if short, long := run(1_000), run(100_000); long != short {
		t.Errorf("%.0f allocations over 100 000 batches, %.0f over 1 000", long, short)
	}
}

// TestScatterReplayAllocs locks the sharded replay's memory budget over a
// stable source: at most 40 bytes allocated per record. A span table that
// is never recycled costs 24 (one slice header per record); packet memory
// allocated per batch — 56 per record — does not fit beside it, so this
// fails if the slab moves back from the shard into the batch. The batch
// ledger must close whatever the scheduling made of the recycling.
func TestScatterReplayAllocs(t *testing.T) {
	const workers, records = 3, 120 * scatterBatch
	pkts := make([]*telescope.Packet, records)
	payload := []byte{0xc0, 0x00, 0x00, 0x00, 0x01, 0x08}
	for i := range pkts {
		pkts[i] = &telescope.Packet{
			TS:  tsAt(time.Duration(i) * time.Millisecond),
			Src: netmodel.Addr(0x0a000001 + uint32(i%251)*0x101),
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 443, DstPort: uint16(i),
			Proto: telescope.ProtoUDP, Size: uint16(len(payload)), Payload: payload,
		}
	}
	src, err := newQSNDBuffer(qsndBytes(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScatter(src, workers, true)
	feeds := sc.Feeds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	engine.Run(engine.Config{Workers: workers}, feeds,
		func(int, *telescope.Packet) bool { return false }, nil)
	runtime.ReadMemStats(&after)
	if err := sc.Err(); err != nil || sc.Packets() != records {
		t.Fatalf("scattered %d of %d records, err %v", sc.Packets(), records, err)
	}
	if perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records; perRecord > 40 {
		t.Errorf("sharded replay allocated %.1f bytes/record, want ≤ 40", perRecord)
	}
	tel := sc.Telemetry()
	if tel.Batches < 100 || tel.BatchAllocs+tel.BatchReuses != tel.Batches {
		t.Errorf("batch ledger: %d batches (want ≥ 100) = %d allocated + %d reused",
			tel.Batches, tel.BatchAllocs, tel.BatchReuses)
	}
}

// TestStreamingAllocs locks the per-record allocation budget of both
// container hot paths: steady-state read and write must not allocate
// (record headers live in reader/writer scratch, payloads reuse
// capacity; a regression here shows up as one allocation per packet
// on a 92 M-record month).
func TestStreamingAllocs(t *testing.T) {
	const records = 20000
	payload := bytes.Repeat([]byte{0xc9}, 900)
	pkt := &telescope.Packet{
		TS: tsAt(time.Hour), Src: netmodel.MustAddr("1.2.3.4"), Dst: netmodel.MustAddr("44.0.0.1"),
		SrcPort: 9000, DstPort: 443, Proto: telescope.ProtoUDP,
		Size: uint16(len(payload)), Payload: payload,
	}

	var qsnd, pcap bytes.Buffer
	for name, sink := range map[string]Sink{
		"qsnd": NewSink(&qsnd, FormatQSND), "pcap": NewSink(&pcap, FormatPcap),
	} {
		if err := sink.Write(pkt); err != nil { // header + warmup
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(records-1, func() {
			if err := sink.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}); avg > 0.01 {
			t.Errorf("%s write: %.2f allocs/record, want 0", name, avg)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	for name, data := range map[string][]byte{"qsnd": qsnd.Bytes(), "pcap": pcap.Bytes()} {
		src, err := NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ { // warm the payload buffer
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(records-1000, func() {
			if _, err := src.Next(); err != nil {
				t.Fatal(err)
			}
		}); avg > 0.01 {
			t.Errorf("%s read: %.2f allocs/record, want 0", name, avg)
		}
	}
}

// TestScatterSurfacesReadError breaks the stream under the reader after
// record 700: both feeds deliver exactly the 700 records read before the
// failure and report it through Err.
func TestScatterSurfacesReadError(t *testing.T) {
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	var breakAt uint64
	for i, p := range salvagePackets(900) {
		if i == 700 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			breakAt = uint64(buf.Len())
		}
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		// The short-read span stops the window's buffer-sized reads at the
		// break, so every record before it is framed before the read that
		// fails; with no retry budget the failure is terminal.
		src, err := NewSource(faultinject.NewReader(bytes.NewReader(buf.Bytes()),
			faultinject.Fault{Kind: faultinject.ShortRead, Offset: breakAt - 1},
			faultinject.Fault{Kind: faultinject.Transient, Offset: breakAt}))
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScatter(src, workers, true)
		engine.Run(engine.Config{Workers: workers}, sc.Feeds(),
			func(int, *telescope.Packet) bool { return false }, nil)
		var te *faultinject.TransientError
		if !errors.As(sc.Err(), &te) || te.Offset != breakAt {
			t.Errorf("workers=%d: err = %v, want the failure injected at byte %d", workers, sc.Err(), breakAt)
		}
		if sc.Packets() != 700 {
			t.Errorf("workers=%d: packets before error = %d", workers, sc.Packets())
		}
	}
}
