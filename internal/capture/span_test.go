package capture

// Span-path equivalence tests: the two-phase framing API
// (FrameNext/TakeSpan) plus the source's SpanDecoder is the
// decode-after-scatter refactoring of Next, and must reproduce the
// sequential decoder exactly — same packets, same order, and the same
// total skip accounting split between the reader and the shards.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"quicsand/internal/telescope"
)

// drainSpans walks src the way a scatter reader and its shard pumps
// do: frame, take the span (into a fresh buffer unless spans are
// stable), decode with the source's immutable decoder. Returns the
// decoded packets and the shard-side drop count.
func drainSpans(t *testing.T, src Source) ([]*telescope.Packet, uint64) {
	t.Helper()
	span, ok := src.(SpanSource)
	if !ok {
		t.Fatalf("%T does not implement SpanSource", src)
	}
	dec := span.SpanDecoder()
	var out []*telescope.Packet
	var drops uint64
	for {
		spanLen, src4, err := span.FrameNext()
		if errors.Is(err, io.EOF) {
			return out, drops
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		if !span.SpanStable() {
			buf = make([]byte, spanLen)
		}
		s := span.TakeSpan(buf)
		if len(s) != spanLen {
			t.Fatalf("span length %d, framed %d", len(s), spanLen)
		}
		var p telescope.Packet
		if !dec.DecodeSpan(s, &p) {
			drops++
			continue
		}
		if p.Src != src4 {
			t.Fatalf("framed src %v, decoded src %v", src4, p.Src)
		}
		cp := p
		cp.Payload = append([]byte(nil), p.Payload...)
		if len(p.Payload) == 0 {
			cp.Payload = nil
		}
		out = append(out, &cp)
	}
}

func expectSamePackets(t *testing.T, label string, want, got []*telescope.Packet) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d packets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !samePacket(want[i], got[i]) {
			t.Errorf("%s: packet %d differs:\n want %+v\n got  %+v", label, i, want[i], got[i])
		}
	}
}

func qsndBytes(t *testing.T, pkts []*telescope.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telescope.NewWriter(&buf)
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

func TestSpanPathMatchesNextQSND(t *testing.T) {
	data := qsndBytes(t, samplePackets())

	seqSrc, err := NewSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seqSrc)

	spanSrc, err := NewSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, drops := drainSpans(t, spanSrc)
	expectSamePackets(t, "qsnd stream", want, got)
	if drops != 0 {
		t.Errorf("qsnd stream dropped %d spans", drops)
	}
}

func TestSpanPathMatchesNextQSNDBuffer(t *testing.T) {
	data := qsndBytes(t, samplePackets())

	seqSrc, err := NewQSNDBuffer(data)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seqSrc)

	spanSrc, err := NewQSNDBuffer(data)
	if err != nil {
		t.Fatal(err)
	}
	if !spanSrc.(SpanSource).SpanStable() {
		t.Fatal("buffer spans must be stable (zero-copy)")
	}
	got, drops := drainSpans(t, spanSrc)
	expectSamePackets(t, "qsnd buffer", want, got)
	if drops != 0 {
		t.Errorf("qsnd buffer dropped %d spans", drops)
	}

	// The buffer source must also match the streamed decoder.
	streamSrc, err := NewSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	expectSamePackets(t, "buffer vs stream", drain(t, streamSrc), want)
}

// TestSpanPathMatchesNextPcap pins the pcap skip split: reader-side
// skips (decap failure, short or non-IPv4 headers) counted in Skipped
// plus shard-side decode drops must equal the sequential reader's
// Skipped total, with identical surviving packets.
func TestSpanPathMatchesNextPcap(t *testing.T) {
	ip := rawIPv4UDP("8.8.8.8", "44.3.2.1", 12345, 443, []byte{0x40, 1, 2, 3})
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
	data := writeForeignPcap(binary.LittleEndian, false, LinkEthernet, frames)

	seq, err := NewPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seq)
	wantSkipped := seq.Skipped

	r, err := NewPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, drops := drainSpans(t, r)
	expectSamePackets(t, "pcap", want, got)
	if r.Skipped+drops != wantSkipped {
		t.Errorf("skip split %d reader + %d shard != sequential %d",
			r.Skipped, drops, wantSkipped)
	}
	if drops == 0 {
		t.Error("fixture exercised no shard-side drops (frag/sctp should decode-drop)")
	}
	if r.Skipped == 0 {
		t.Error("fixture exercised no reader-side skips (arp/short should frame-skip)")
	}
}

// TestOpenFileRouting checks the container sniff: QSND files come back
// as the zero-copy buffer source (with a working Close), pcap files as
// the streaming reader, and junk as ErrUnknownFormat.
func TestOpenFileRouting(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) *os.File {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}

	qsnd := qsndBytes(t, samplePackets())
	src, err := OpenFile(write("a.qsnd", qsnd))
	if err != nil {
		t.Fatal(err)
	}
	if sp, ok := src.(SpanSource); !ok || !sp.SpanStable() {
		t.Fatalf("qsnd OpenFile → %T, want the mapped (stable-span) source", src)
	}
	got := drain(t, src)
	expectSamePackets(t, "openfile qsnd", samplePackets(), got)
	if err := src.(io.Closer).Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := src.(io.Closer).Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}

	pcap := writeForeignPcap(binary.LittleEndian, false, LinkRawIP,
		[][]byte{rawIPv4UDP("1.1.1.1", "44.0.0.1", 1, 443, nil)})
	psrc, err := OpenFile(write("a.pcap", pcap))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := psrc.(*PcapReader); !ok {
		t.Fatalf("pcap OpenFile → %T, want *PcapReader", psrc)
	}

	if _, err := OpenFile(write("junk", []byte("not a capture"))); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("junk OpenFile err = %v, want ErrUnknownFormat", err)
	}
	if _, err := OpenFile(write("empty", nil)); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("empty OpenFile err = %v, want ErrUnknownFormat", err)
	}
}
