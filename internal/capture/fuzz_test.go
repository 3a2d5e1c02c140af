package capture

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quicsand/internal/telescope"
)

// readAllPackets drains a source, deep-copying every record, and stops
// at the first error (clean EOF or corruption — fuzz inputs may carry
// a valid prefix before garbage).
func readAllPackets(src Source) []*telescope.Packet {
	var out []*telescope.Packet
	for {
		p, err := src.Next()
		if err != nil {
			return out
		}
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		if len(q.Payload) == 0 {
			q.Payload = nil
		}
		out = append(out, &q)
	}
}

// encodeCapture renders packets into one container, surfacing the
// writer's sticky error.
func encodeCapture(pkts []*telescope.Packet, f Format) ([]byte, error) {
	var buf bytes.Buffer
	sink := NewSink(&buf, f)
	for _, p := range pkts {
		if err := sink.Write(p); err != nil {
			return nil, err
		}
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// goldenSeeds loads the golden-trace corpus (testdata/golden at the
// repo root) as fuzz seeds, so the fuzzer starts from real months in
// both containers rather than synthetic minima only.
func goldenSeeds(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Logf("no golden corpus: %v", err)
		return
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".qsnd.gz") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			f.Fatal(err)
		}
		data, err := io.ReadAll(zr)
		if err != nil {
			f.Fatal(err)
		}
		// A golden month is megabytes; a prefix keeps every wire shape
		// (the corpus fronts mixed traffic) while leaving the fuzzer
		// cheap mutations. Mid-record truncation is fine — the target
		// round-trips whatever clean prefix parses.
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		f.Add(data)
		// The pcap rendering of the same prefix seeds the pcap-input arm.
		if src, err := NewSource(bytes.NewReader(data)); err == nil {
			if pcap, err := encodeCapture(readAllPackets(src), FormatPcap); err == nil {
				f.Add(pcap)
			}
		}
	}
}

// FuzzRoundTrip pins the QSND→pcap→QSND container round trip on
// arbitrary input (the QSND reader alone was already fuzzed —
// FuzzQSNDReader). Any parsable record prefix, from either container,
// must satisfy:
//
//   - QSND is a fixed point: encode→decode→encode is byte-identical;
//   - one pcap round trip is canonicalizing: after a single
//     QSND→pcap→QSND pass, a second pass must be byte-identical
//     (pipeline-generated traces are canonical from the start, which
//     TestRecordConvertReplayRoundTrip and the CI replay job assert);
//   - the pcap reader re-admits every frame our writer emitted —
//     record counts match and nothing is skipped.
func FuzzRoundTrip(f *testing.F) {
	goldenSeeds(f)
	f.Add([]byte{})
	// Minimal hand-built trace covering UDP-with-payload, TCP flags and
	// ICMP port stashing.
	var buf bytes.Buffer
	w := NewSink(&buf, FormatQSND)
	for _, p := range []*telescope.Packet{
		{TS: 1700000000000, Src: 0x01020304, Dst: 0x2c000001, SrcPort: 443, DstPort: 9999,
			Proto: telescope.ProtoUDP, Size: 6, Payload: []byte{0xc0, 1, 2, 3, 4, 5}},
		{TS: 1700000001000, Src: 0x05060708, Dst: 0x2c000002, SrcPort: 80, DstPort: 1234,
			Proto: telescope.ProtoTCP, Flags: telescope.FlagSYN | telescope.FlagACK, Size: 40},
		{TS: 1700000002000, Src: 0x0a0b0c0d, Dst: 0x2c000003, SrcPort: 7, DstPort: 8,
			Proto: telescope.ProtoICMP, Flags: 3, Size: 56, Weight: 64},
	} {
		if err := w.Write(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := NewSource(bytes.NewReader(data))
		if err != nil {
			return // not a capture container at all
		}
		pkts := readAllPackets(src)
		if len(pkts) == 0 {
			return
		}

		// QSND re-encoding of records a reader accepted must succeed —
		// the reader's validation is at least as strict as the
		// writer's — and be a decode/encode fixed point.
		qsnd1, err := encodeCapture(pkts, FormatQSND)
		if err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(pkts), err)
		}
		src2, err := NewSource(bytes.NewReader(qsnd1))
		if err != nil {
			t.Fatalf("reopening own QSND encoding: %v", err)
		}
		pkts2 := readAllPackets(src2)
		if len(pkts2) != len(pkts) {
			t.Fatalf("QSND round trip lost records: %d -> %d", len(pkts), len(pkts2))
		}
		qsnd1b, err := encodeCapture(pkts2, FormatQSND)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(qsnd1, qsnd1b) {
			t.Fatal("QSND encode→decode→encode not a fixed point")
		}

		// One pcap pass canonicalizes (fuzz records may carry
		// pre-epoch or post-2106 timestamps pcap cannot hold); the
		// second pass must then be the identity.
		roundTrip := func(in []*telescope.Packet) ([]*telescope.Packet, []byte, bool) {
			pcapBytes, err := encodeCapture(in, FormatPcap)
			if err != nil {
				return nil, nil, false // unencodable record (foreign proto, oversize)
			}
			rd, err := NewSource(bytes.NewReader(pcapBytes))
			if err != nil {
				t.Fatalf("reopening own pcap: %v", err)
			}
			out := readAllPackets(rd)
			if n := SourceSkipped(rd); n > 0 {
				t.Fatalf("pcap reader skipped %d frames our writer emitted", n)
			}
			if len(out) != len(in) {
				t.Fatalf("pcap round trip lost records: %d -> %d", len(in), len(out))
			}
			qsnd, err := encodeCapture(out, FormatQSND)
			if err != nil {
				t.Fatalf("re-encoding pcap round trip: %v", err)
			}
			return out, qsnd, true
		}
		once, qsndOnce, ok := roundTrip(pkts2)
		if !ok {
			return
		}
		_, qsndTwice, ok := roundTrip(once)
		if !ok {
			t.Fatal("canonicalized records became unencodable")
		}
		if !bytes.Equal(qsndOnce, qsndTwice) {
			t.Fatal("QSND→pcap→QSND not idempotent after one canonicalization")
		}
	})
}

// limitWriter models a full disk: it accepts n bytes, then fails every
// write with errDiskFull.
var errDiskFull = errors.New("simulated ENOSPC")

type limitWriter struct {
	n int
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, errDiskFull
	}
	if len(p) > lw.n {
		n := lw.n
		lw.n = 0
		return n, errDiskFull
	}
	lw.n -= len(p)
	return len(p), nil
}

// TestCopyOntoFullSink pins the sticky-writer surface the convert path
// depends on, for both container formats: the first failed write
// surfaces through Copy or Flush, Err stays sticky, and records
// offered after the failure are counted in Dropped rather than
// silently vanishing.
func TestCopyOntoFullSink(t *testing.T) {
	pkts := []*telescope.Packet{}
	for i := 0; i < 64; i++ {
		pkts = append(pkts, &telescope.Packet{
			TS: telescope.Timestamp(1700000000000 + int64(i)*1000), Src: 0x01020304,
			Dst: 0x2c000001, SrcPort: 443, DstPort: 9999,
			Proto: telescope.ProtoUDP, Size: 6, Payload: []byte{0xc0, 1, 2, 3, 4, 5},
		})
	}
	full, err := encodeCapture(pkts, FormatQSND)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatQSND, FormatPcap} {
		t.Run(format.String(), func(t *testing.T) {
			src, err := NewSource(bytes.NewReader(full))
			if err != nil {
				t.Fatal(err)
			}
			sink := NewSink(&limitWriter{n: 256}, format)
			_, copyErr := Copy(sink, src)
			flushErr := sink.Flush()
			if copyErr == nil && flushErr == nil {
				t.Fatal("full sink surfaced no error through Copy or Flush")
			}
			if sink.Err() == nil || !errors.Is(sink.Err(), errDiskFull) {
				t.Fatalf("sticky error = %v, want %v", sink.Err(), errDiskFull)
			}
			if err := sink.Flush(); !errors.Is(err, errDiskFull) {
				t.Fatalf("Flush after failure = %v, want sticky %v", err, errDiskFull)
			}
			// The fire-and-forget Capture path must count, not write.
			before := sink.Err()
			sink.Capture(pkts[0])
			sink.Capture(pkts[1])
			if dropped := sink.Dropped(); dropped < 2 {
				t.Errorf("Dropped = %d after two post-failure Captures", dropped)
			}
			if sink.Err() != before {
				t.Error("post-failure Capture replaced the sticky error")
			}
		})
	}
}
