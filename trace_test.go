package quicsand

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/dissect"
	"quicsand/internal/telescope"
)

// TestTraceCheckpointRoundTrip runs a small month with a trace sink,
// reads the checkpoint back, and re-derives the request/response
// classification from the stored packets — the workflow a user follows
// to re-analyze without re-simulating.
func TestTraceCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "month.qsnd")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telescope.NewWriter(f)

	a, err := Run(Config{Seed: 5, Scale: 0.005, SkipResearch: true, Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	// §4.1 classification: UDP/443 in either direction whose payload, when
	// stored, dissects as QUIC.
	d := dissect.NewDissector()
	var reqs, resps, stored uint64
	var lastTS telescope.Timestamp
	for r := telescope.NewReader(rf); ; {
		p, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stored++
		if p.TS < lastTS {
			t.Fatal("trace out of order")
		}
		lastTS = p.TS
		if !p.IsQUICCandidate() {
			continue
		}
		if p.Payload != nil {
			if _, err := d.DissectPacket(p); err != nil {
				continue
			}
		}
		if p.IsRequest() {
			reqs++
		} else {
			resps++
		}
	}
	if stored != a.Telescope.Total {
		t.Errorf("stored %d packets, telescope saw %d", stored, a.Telescope.Total)
	}
	// The re-derived classification must match the original counters.
	if reqs != a.HourlyType.TotalOf("Requests") {
		t.Errorf("replayed requests %d != live %d", reqs, a.HourlyType.TotalOf("Requests"))
	}
	if resps != a.HourlyType.TotalOf("Responses") {
		t.Errorf("replayed responses %d != live %d", resps, a.HourlyType.TotalOf("Responses"))
	}
}

// TestMonthPcapRoundTripLossless is the export acceptance invariant:
// a full generated month (research thinning weights, QUIC payloads,
// TCP/ICMP backscatter — every record class) written as QSND,
// converted to pcap and back, must reproduce the original checkpoint
// byte-for-byte. Weight and the claimed datagram size ride the pcap
// frames' metadata trailer (internal/capture).
func TestMonthPcapRoundTripLossless(t *testing.T) {
	var qsnd bytes.Buffer
	w := telescope.NewWriter(&qsnd)
	if _, err := Run(Config{Seed: 31, Scale: 0.005, ResearchThin: 1 << 14, Trace: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 {
		t.Fatal("empty month")
	}
	orig := qsnd.Bytes()

	var pcapBuf bytes.Buffer
	src, err := capture.NewSource(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	pcapSink := capture.NewSink(&pcapBuf, capture.FormatPcap)
	n1, err := capture.Copy(pcapSink, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := pcapSink.Flush(); err != nil {
		t.Fatal(err)
	}

	var back bytes.Buffer
	src2, err := capture.NewSource(bytes.NewReader(pcapBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	qsndSink := capture.NewSink(&back, capture.FormatQSND)
	n2, err := capture.Copy(qsndSink, src2)
	if err != nil {
		t.Fatal(err)
	}
	if err := qsndSink.Flush(); err != nil {
		t.Fatal(err)
	}

	if n1 != w.Count() || n2 != w.Count() {
		t.Errorf("record counts: wrote %d, to pcap %d, back %d", w.Count(), n1, n2)
	}
	if !bytes.Equal(orig, back.Bytes()) {
		t.Errorf("QSND → pcap → QSND not byte-identical: %d vs %d bytes (or content)",
			len(orig), len(back.Bytes()))
	}
}
