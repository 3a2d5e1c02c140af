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
	"strings"
	"sync"
	"testing"

	"quicsand/internal/engine"
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
	var dec SpanDecoder // once a record is framed, as the SpanSource contract says
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
		if dec == nil {
			dec = span.SpanDecoder()
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
	w := NewSink(&buf, FormatQSND)
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

// newQSNDSource opens an in-memory QSND stream as a Source that frames
// by offset arithmetic and hands out stable zero-copy spans, as a mapped
// file does.
func newQSNDBuffer(data []byte) (Source, error) {
	if len(data) < 4 || !isQSNDMagic(data) {
		return nil, ErrUnknownFormat
	}
	return qsndBuffer(data), nil
}

// newPcapReader parses the pcap global header streamed from r.
func newPcapReader(r io.Reader) (*reader, error) { return newReader(newWindow(r), FormatPcap) }

// qsndReader reads a QSND stream from r; its file header is parsed by
// the first read.
func qsndReader(r io.Reader) *reader {
	rd, _ := newReader(newWindow(r), FormatQSND)
	return rd
}

// qsndBuffer reads data, a whole QSND stream, in place: spans and
// payloads alias it, as they alias a mapped file.
func qsndBuffer(data []byte) *reader {
	rd, _ := newReader(newSliceWindow(data), FormatQSND)
	return rd
}

// Offset returns bytes consumed so far — after an error, the start of
// the record that could not be read.
func (r *reader) Offset() uint64 { return r.w.offset() }

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

	seqSrc, err := newQSNDBuffer(data)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seqSrc)

	spanSrc, err := newQSNDBuffer(data)
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

// fileOf writes data to a temporary file and opens it for OpenFile; the
// descriptor is closed with the test.
func fileOf(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.bin")
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

// pipeOf returns the read end of a pipe that delivers data and then
// ends — `cat capture | quicsand replay -i /dev/stdin` as OpenFile sees
// it: a file that can be neither sought nor mapped.
func pipeOf(t *testing.T, data []byte) *os.File {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// A reader that stops early (fail-fast error) closes r with the
		// test, which fails the blocked write; nothing to report.
		_, _ = w.Write(data)
		w.Close()
	}()
	t.Cleanup(func() { r.Close() })
	return r
}

// openClosed opens f through OpenFile and closes the source with the
// test.
func openClosed(t *testing.T, f *os.File) Source {
	t.Helper()
	src, err := OpenFile(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.(io.Closer).Close() })
	return src
}

// skipSplitPcap is the pcap skip-split fixture: frames the reader skips
// while routing (ARP, a headerless runt), frames only the full decode
// rejects (a later fragment, SCTP), and one representable datagram.
func skipSplitPcap() []byte {
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
	return writeForeignPcap(binary.LittleEndian, false, LinkEthernet, frames)
}

// TestSpanPathMatchesNextPcap pins the pcap skip split: reader-side
// skips (decap failure, short or non-IPv4 headers) counted in Skipped
// plus shard-side decode drops must equal the sequential reader's
// Skipped total, with identical surviving packets — whether the reader
// slides over a stream or lies over OpenFile's mapping.
func TestSpanPathMatchesNextPcap(t *testing.T) {
	data := skipSplitPcap()

	seq, err := newPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seq)
	wantSkipped := seq.skipped

	streamed, err := newPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*reader{
		"streamed": streamed,
		"mapped":   openClosed(t, fileOf(t, data)).(*reader),
	} {
		if r.SpanStable() != (name == "mapped") {
			t.Errorf("%s: SpanStable() = %v", name, r.SpanStable())
		}
		got, drops := drainSpans(t, r)
		expectSamePackets(t, name, want, got)
		if r.skipped+drops != wantSkipped {
			t.Errorf("%s: skip split %d reader + %d shard != sequential %d",
				name, r.skipped, drops, wantSkipped)
		}
		if drops == 0 {
			t.Errorf("%s: fixture exercised no shard-side drops (frag/sctp should decode-drop)", name)
		}
		if r.skipped == 0 {
			t.Errorf("%s: fixture exercised no reader-side skips (arp/short should frame-skip)", name)
		}
	}
}

// TestScatterLendsMappedSpans runs the skip-split fixture through the
// sharded scatter from a mapped file and from a pipe: the same packets
// and the same reader-plus-shard drop total as the sequential reader,
// with every span byte lent by the mapping (nothing copied, no arena)
// and every span byte copied from the stream. The fixture's frames share
// one source, so one shard emits them in stored order.
func TestScatterLendsMappedSpans(t *testing.T) {
	data := skipSplitPcap()
	seq, err := newPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, seq)

	for name, f := range map[string]*os.File{"mapped": fileOf(t, data), "piped": pipeOf(t, data)} {
		src := openClosed(t, f)
		sc := NewScatter(src, 4, true)
		var got []*telescope.Packet
		var mu sync.Mutex
		engine.Run(engine.Config{Workers: 4}, sc.Feeds(), func(_ int, p *telescope.Packet) bool {
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			mu.Lock()
			got = append(got, &cp)
			mu.Unlock()
			return false
		}, nil)
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		expectSamePackets(t, name, want, got)
		tel := sc.Telemetry()
		if total := SourceSkipped(src) + tel.DecodeDrops; total != seq.skipped {
			t.Errorf("%s: %d reader skips + %d shard drops != sequential %d",
				name, SourceSkipped(src), tel.DecodeDrops, seq.skipped)
		}
		if tel.SpanBytes == 0 {
			t.Fatalf("%s: span path not taken: %+v", name, tel)
		}
		wantCopied := tel.SpanBytes
		if name == "mapped" {
			wantCopied = 0
		}
		if tel.SpanCopyBytes != wantCopied {
			t.Errorf("%s: %d of %d span bytes copied, want %d", name, tel.SpanCopyBytes, tel.SpanBytes, wantCopied)
		}
	}
}

// TestOpenFileRouting checks what OpenFile decides from the file: a
// regular file of either container comes back as its reader over the
// mapping (stable spans, a Close that is safe to repeat), a pipe as the
// same reader over a sliding window, and junk or nothing as
// ErrUnknownFormat on both routes.
func TestOpenFileRouting(t *testing.T) {
	qsnd := qsndBytes(t, samplePackets())
	pcap, err := encodeCapture(samplePackets(), FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		format Format
	}{{"qsnd", qsnd, FormatQSND}, {"pcap", pcap, FormatPcap}} {
		for route, open := range map[string]func(*testing.T, []byte) *os.File{"file": fileOf, "pipe": pipeOf} {
			src, err := OpenFile(open(t, tc.data))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, route, err)
			}
			if got := SourceFormat(src); got != tc.format {
				t.Errorf("%s %s: format %v", tc.name, route, got)
			}
			if sp, ok := src.(SpanSource); !ok || sp.SpanStable() != (route == "file") {
				t.Errorf("%s %s → %T, stable spans must mean a mapped file", tc.name, route, src)
			}
			expectSamePackets(t, tc.name+" "+route, samplePackets(), drain(t, src))
			// Spans and payloads are the caller's to stop using first, as
			// for QSND; the copies drain took are all this test kept.
			if err := src.(io.Closer).Close(); err != nil {
				t.Fatalf("%s %s: close: %v", tc.name, route, err)
			}
			if err := src.(io.Closer).Close(); err != nil {
				t.Fatalf("%s %s: second close not idempotent: %v", tc.name, route, err)
			}
		}
	}

	for route, open := range map[string]func(*testing.T, []byte) *os.File{"file": fileOf, "pipe": pipeOf} {
		_, err := OpenFile(open(t, []byte("not a capture")))
		if !errors.Is(err, ErrUnknownFormat) || err.Error() != ErrUnknownFormat.Error() {
			t.Errorf("junk %s: err = %v, want ErrUnknownFormat unadorned", route, err)
		}
		_, err = OpenFile(open(t, nil))
		if !errors.Is(err, ErrUnknownFormat) || !strings.HasPrefix(err.Error(), "capture: empty stream: ") {
			t.Errorf("empty %s: err = %v, want the empty-stream ErrUnknownFormat", route, err)
		}
	}
	// A header the reader rejects is reported the same from a mapping
	// (which is then released) as from a stream.
	badLink := writeForeignPcap(binary.LittleEndian, false, 999, nil)
	_, ferr := OpenFile(fileOf(t, badLink))
	_, perr := OpenFile(pipeOf(t, badLink))
	if !errors.Is(ferr, ErrBadPcap) || ferr.Error() != perr.Error() {
		t.Errorf("bad link type: file %v, pipe %v", ferr, perr)
	}
}

// TestOpenFileDamagedPcapMappedMatchesStreamed pins that the route
// OpenFile picks does not show in how a damaged pcap is read: fail-fast
// stops with the same error text (record index and byte offset
// included) after the same packets, and salvage recovers the same
// packets with the same ledger and skip total.
func TestOpenFileDamagedPcapMappedMatchesStreamed(t *testing.T) {
	data, err := encodeCapture(salvagePackets(40), FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	offs := pcapRecordOffsets(t, data)
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[offs[17]+8:], 0xFFFF0000) // incl > maxFrame
	bad = bad[:offs[len(offs)-1]+21]                            // and a torn tail

	for pname, pol := range map[string]SalvagePolicy{"fail-fast": {}, "salvage": {SkipCorrupt: true}} {
		mapped := openClosed(t, fileOf(t, bad)).(*reader)
		piped := openClosed(t, pipeOf(t, bad)).(*reader)
		want, werr, wsv := drainPcapReader(piped, pol)
		got, gerr, gsv := drainPcapReader(mapped, pol)
		if len(got) != len(want) {
			t.Fatalf("%s: mapped read %d packets, streamed %d", pname, len(got), len(want))
		}
		for i := range want {
			if !samePcapPacket(got[i], want[i]) {
				t.Errorf("%s: packet %d differs:\n mapped   %+v\n streamed %+v", pname, i, got[i], want[i])
			}
		}
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: terminal errors differ:\n mapped   %q\n streamed %q", pname, gerr, werr)
		}
		if pname == "fail-fast" && !strings.Contains(gerr.Error(), "at record 17, byte offset") {
			t.Errorf("fail-fast error lost its position: %v", gerr)
		}
		if gsv != wsv || mapped.skipped != piped.skipped || mapped.Offset() != piped.Offset() {
			t.Errorf("%s: accounting differs: mapped %+v skipped %d offset %d, streamed %+v skipped %d offset %d",
				pname, gsv, mapped.skipped, mapped.Offset(), wsv, piped.skipped, piped.Offset())
		}
		if pname == "salvage" && gsv.CorruptRecords != 2 {
			t.Errorf("salvage ledger %+v, want the flipped record and the torn tail", gsv)
		}
	}
}
