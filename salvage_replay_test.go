package quicsand

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/faultinject"
	"quicsand/internal/oracle"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
)

// salvageFixture records one scenario month and returns the config,
// expectation, QSND checkpoint and its pcap export.
func salvageFixture(t *testing.T) (Config, *oracle.Expectation, []byte, []byte) {
	t.Helper()
	sc, err := scenario.Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 97, Scale: 0.002, ResearchThin: 1 << 14, Workers: 2, Scenario: sc}
	exp, err := Expect(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	w := telescope.NewWriter(&trace)
	recCfg := cfg
	recCfg.Trace = w
	if _, err := Run(recCfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	qsnd := trace.Bytes()

	var pcapBuf bytes.Buffer
	src, err := capture.NewSource(bytes.NewReader(qsnd))
	if err != nil {
		t.Fatal(err)
	}
	sink := capture.NewSink(&pcapBuf, capture.FormatPcap)
	if _, err := capture.Copy(sink, src); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return cfg, exp, qsnd, pcapBuf.Bytes()
}

// qsndOffsets walks a QSND store's record start offsets.
func qsndOffsets(data []byte) []uint64 {
	var offs []uint64
	off := uint64(8)
	for off+30 <= uint64(len(data)) {
		offs = append(offs, off)
		plen := binary.LittleEndian.Uint16(data[off+28:])
		off += 30 + uint64(plen)
	}
	return offs
}

// pcapOffsets walks an LE µs pcap's record start offsets.
func pcapOffsets(data []byte) []uint64 {
	var offs []uint64
	off := uint64(24)
	for off+16 <= uint64(len(data)) {
		offs = append(offs, off)
		incl := binary.LittleEndian.Uint32(data[off+8:])
		off += 16 + uint64(incl)
	}
	return offs
}

// damageMidRecord destroys exactly one mid-file record in place:
// invalidating the QSND proto byte or blowing the pcap captured
// length, so the fixed-size framing is what the reader trips over.
func damageMidRecord(data []byte, format capture.Format) (bad []byte, k int) {
	bad = append([]byte(nil), data...)
	if format == capture.FormatQSND {
		offs := qsndOffsets(data)
		k = len(offs) / 2
		bad[offs[k]+20] = 0xFF
		return bad, k
	}
	offs := pcapOffsets(data)
	k = len(offs) / 2
	binary.LittleEndian.PutUint32(bad[offs[k]+8:], 0xFFF00000)
	return bad, k
}

// replayBytes opens data as a capture source and replays it.
func replayBytes(cfg Config, data []byte) (*Analysis, error) {
	src, err := capture.NewSource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Replay(cfg, src)
}

// openStream opens data through the io.Reader decoder.
func openStream(t *testing.T, data []byte) capture.Source {
	t.Helper()
	src, err := capture.NewSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// writeCapture writes data to a file under the test's temporary
// directory and returns its path.
func writeCapture(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMapped opens the capture file at path through capture.OpenFile —
// the memory-mapped zero-copy path of either container — and closes the
// source with the test.
func openMapped(t *testing.T, path string) capture.Source {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // the mapping outlives the descriptor
	src, err := capture.OpenFile(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
	})
	return src
}

// openMmap round-trips data through a file and capture.OpenFile.
func openMmap(t *testing.T, data []byte) capture.Source {
	t.Helper()
	return openMapped(t, writeCapture(t, data))
}

// TestReplaySalvagedDegradedOracle is the PR's acceptance path for
// both container formats: a capture with injected mid-file corruption
// fails fast by default with the original terminal error; in salvage
// mode the replay completes for every worker count with a
// worker-invariant analysis, re-checkpoints exactly the clean records
// minus the damaged span, reports the span through -stats text, the
// Prometheus exposition and the manifest counters, and validates
// against the oracle's degraded bounds.
func TestReplaySalvagedDegradedOracle(t *testing.T) {
	cfg, exp, qsnd, pcap := salvageFixture(t)

	// The ground truth the salvaged replays must reproduce: every clean
	// record except the damaged one, in stored order.
	cleanSrc, err := capture.NewSource(bytes.NewReader(qsnd))
	if err != nil {
		t.Fatal(err)
	}
	var clean []*telescope.Packet
	for {
		p, err := cleanSrc.Next()
		if err != nil {
			break
		}
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		clean = append(clean, &q)
	}
	if len(clean) < 20 {
		t.Fatalf("fixture too small: %d records", len(clean))
	}

	for _, tc := range []struct {
		name   string
		format capture.Format
		data   []byte
		open   func(t *testing.T, data []byte) capture.Source
	}{
		{"qsnd", capture.FormatQSND, qsnd, openStream},
		{"pcap", capture.FormatPcap, pcap, openStream},
		// The same damaged checkpoint through the mmap path: the
		// resync over the mapped slice must account identically to the
		// one over the streamed window.
		{"qsnd-mmap", capture.FormatQSND, qsnd, openMmap},
		{"pcap-mmap", capture.FormatPcap, pcap, openMmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, k := damageMidRecord(tc.data, tc.format)

			// Fail-fast (the zero policy) keeps the historical contract.
			if _, err := Replay(cfg, tc.open(t, bad)); err == nil {
				t.Fatal("fail-fast replay of damaged capture succeeded")
			} else if !errors.Is(err, telescope.ErrBadTrace) && !errors.Is(err, capture.ErrBadPcap) {
				t.Fatalf("fail-fast err = %v, want the format's corruption error", err)
			}

			// The expected re-checkpoint: clean records minus record k.
			var wantTrace bytes.Buffer
			ww := telescope.NewWriter(&wantTrace)
			for i, p := range clean {
				if i == k {
					continue
				}
				if err := ww.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := ww.Flush(); err != nil {
				t.Fatal(err)
			}

			var renderAll string
			for _, workers := range []int{1, 2, 8} {
				scfg := cfg
				scfg.Workers = workers
				scfg.Salvage = capture.SalvagePolicy{SkipCorrupt: true}

				var recheck bytes.Buffer
				w := telescope.NewWriter(&recheck)
				scfg.Trace = w
				a, err := Replay(scfg, tc.open(t, bad))
				if err != nil {
					t.Fatalf("workers=%d: salvage replay failed: %v", workers, err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}

				// Every record outside the damaged span survives
				// bit-identically, none are invented.
				if !bytes.Equal(recheck.Bytes(), wantTrace.Bytes()) {
					t.Errorf("workers=%d: salvaged re-checkpoint differs from clean-minus-damaged (%d vs %d bytes)",
						workers, recheck.Len(), wantTrace.Len())
				}

				// The skipped span is reported on every surface.
				in := a.Telemetry.Ingest
				if in.CorruptRecords != 1 || in.ResyncScans != 1 || in.SalvageMaxLost == 0 {
					t.Errorf("workers=%d: ingest ledger = %+v, want one accounted span", workers, in)
				}
				if txt := a.Telemetry.Text(); !strings.Contains(txt, "salvage:") {
					t.Errorf("workers=%d: -stats text lacks the salvage line:\n%s", workers, txt)
				}
				var prom bytes.Buffer
				a.Telemetry.WritePrometheus(&prom, "quicsand")
				for _, metric := range []string{
					"quicsand_ingest_corrupt_records_total 1",
					"quicsand_ingest_resync_scans_total 1",
					"quicsand_ingest_salvaged_bytes_total",
					"quicsand_ingest_salvage_max_lost_total",
				} {
					if !strings.Contains(prom.String(), metric) {
						t.Errorf("workers=%d: exposition lacks %s", workers, metric)
					}
				}
				if mjson, err := json.MarshalIndent(a.Manifest("test"), "", "  "); err != nil || !strings.Contains(string(mjson), `"corrupt_records": 1`) {
					t.Errorf("workers=%d: manifest lacks the salvage ledger (err=%v)", workers, err)
				}

				// The oracle validates the degraded run: lower bounds
				// relaxed by the loss budget, zero violations.
				obs := a.OracleObserved()
				if obs.LostRecords == 0 {
					t.Fatalf("workers=%d: observed no loss budget", workers)
				}
				if vs := oracle.Check(exp, obs); len(vs) != 0 {
					t.Errorf("workers=%d: degraded oracle violations:\n%s",
						workers, oracle.Report(exp, oracle.Evaluate(exp, obs)))
				}

				// Salvage must not break replay's worker invariance.
				if renderAll == "" {
					renderAll = a.RenderAll()
				} else if a.RenderAll() != renderAll {
					t.Errorf("workers=%d: salvaged analysis diverged across worker counts", workers)
				}

				// The degraded bounds keep their teeth: the budget only
				// lowers floors, so an inflated counter still violates.
				inflated := a.OracleObserved()
				inflated.ResearchPackets += 1 << 20
				if len(oracle.Check(exp, inflated)) == 0 {
					t.Errorf("workers=%d: inflated observation passed the degraded oracle", workers)
				}
			}
		})
	}
}

// TestReplayTruncatedTail pins the torn-tail contract for both
// formats: fail-fast surfaces the corruption error, salvage mode
// replays every complete record and ends cleanly.
func TestReplayTruncatedTail(t *testing.T) {
	cfg, _, qsnd, pcap := salvageFixture(t)
	for _, tc := range []struct {
		name string
		data []byte
		offs []uint64
		open func(t *testing.T, data []byte) capture.Source
	}{
		{"qsnd", qsnd, qsndOffsets(qsnd), openStream},
		{"pcap", pcap, pcapOffsets(pcap), openStream},
		{"qsnd-mmap", qsnd, qsndOffsets(qsnd), openMmap},
		{"pcap-mmap", pcap, pcapOffsets(pcap), openMmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			last := tc.offs[len(tc.offs)-1]
			torn := tc.data[:last+9] // tear inside the final record header

			if _, err := Replay(cfg, tc.open(t, torn)); err == nil {
				t.Fatal("fail-fast replay of torn capture succeeded")
			}

			scfg := cfg
			scfg.Salvage = capture.SalvagePolicy{SkipCorrupt: true}
			a, err := Replay(scfg, tc.open(t, torn))
			if err != nil {
				t.Fatalf("salvage replay of torn tail failed: %v", err)
			}
			want := uint64(len(tc.offs) - 1)
			if a.Telemetry.Ingest.Records != want {
				t.Errorf("salvaged %d records, want the %d complete ones", a.Telemetry.Ingest.Records, want)
			}
			if in := a.Telemetry.Ingest; in.CorruptRecords != 1 || in.SalvageMaxLost == 0 {
				t.Errorf("torn tail not accounted: %+v", in)
			}
		})
	}
}

// TestSalvageLedgerMmapMatchesStream pins, end to end, that how the
// bytes reach the reader does not show in the ledger: the mapped file
// (slice window) and the streamed one (sliding window) must account a
// damaged capture with the exact same salvage ledger and produce the
// same record count, at every worker count.
func TestSalvageLedgerMmapMatchesStream(t *testing.T) {
	cfg, _, qsnd, pcap := salvageFixture(t)
	for _, tc := range []struct {
		format capture.Format
		data   []byte
	}{{capture.FormatQSND, qsnd}, {capture.FormatPcap, pcap}} {
		bad, _ := damageMidRecord(tc.data, tc.format)
		// Fail-fast names the same record at the same byte offset.
		_, serr := Replay(cfg, openStream(t, bad))
		_, merr := Replay(cfg, openMmap(t, bad))
		if serr == nil || merr == nil || serr.Error() != merr.Error() {
			t.Errorf("%v: fail-fast errors differ:\n stream %v\n mmap   %v", tc.format, serr, merr)
		}
		for _, workers := range []int{1, 2, 8} {
			scfg := cfg
			scfg.Workers = workers
			scfg.Salvage = capture.SalvagePolicy{SkipCorrupt: true}
			stream, err := Replay(scfg, openStream(t, bad))
			if err != nil {
				t.Fatalf("%v/workers=%d: stream replay: %v", tc.format, workers, err)
			}
			mmap, err := Replay(scfg, openMmap(t, bad))
			if err != nil {
				t.Fatalf("%v/workers=%d: mmap replay: %v", tc.format, workers, err)
			}
			si, mi := stream.Telemetry.Ingest, mmap.Telemetry.Ingest
			if si.Records != mi.Records || si.DecodeDrops != mi.DecodeDrops ||
				si.CorruptRecords != mi.CorruptRecords ||
				si.ResyncScans != mi.ResyncScans ||
				si.SalvagedBytes != mi.SalvagedBytes ||
				si.SalvageMaxLost != mi.SalvageMaxLost {
				t.Errorf("%v/workers=%d: ledgers differ:\n stream %+v\n mmap   %+v", tc.format, workers, si, mi)
			}
		}
	}
}

// TestReplaySalvageOffByDefault guards the zero-config contract: a
// clean replay reports no salvage activity anywhere.
func TestReplaySalvageOffByDefault(t *testing.T) {
	cfg, _, qsnd, _ := salvageFixture(t)
	a, err := replayBytes(cfg, qsnd)
	if err != nil {
		t.Fatal(err)
	}
	in := a.Telemetry.Ingest
	if in.CorruptRecords != 0 || in.ResyncScans != 0 || in.SalvagedBytes != 0 ||
		in.SalvageMaxLost != 0 || in.TransientRetries != 0 {
		t.Errorf("clean replay carries salvage counters: %+v", in)
	}
	if txt := a.Telemetry.Text(); strings.Contains(txt, "salvage:") {
		t.Errorf("clean -stats text mentions salvage:\n%s", txt)
	}
	if obs := a.OracleObserved(); obs.LostRecords != 0 {
		t.Errorf("clean replay claims a loss budget of %d", obs.LostRecords)
	}
}

// TestStreamReplaySalvage pins that the streaming replay honours
// cfg.Salvage and reports the batch replay's ingest ledger: a capture
// with one destroyed mid-file record (and, for pcap, one frame outside
// the packet model) streams to completion under SkipCorrupt, and the
// final checkpoint's analysis carries the same format, record count,
// decode drops, salvage counters and oracle loss budget as Replay over
// the same bytes.
func TestStreamReplaySalvage(t *testing.T) {
	cfg, _, qsnd, pcap := salvageFixture(t)
	cfg.Salvage = capture.SalvagePolicy{SkipCorrupt: true}

	// One ARP frame appended to the pcap: dropped by the reader on every
	// path, so DecodeDrops is 1 rather than vacuously 0.
	offs := pcapOffsets(pcap)
	arp := append([]byte(nil), pcap[offs[len(offs)-1]:][:16]...) // reuse the last timestamp
	binary.LittleEndian.PutUint32(arp[8:], 42)
	binary.LittleEndian.PutUint32(arp[12:], 42)
	arp = append(arp, make([]byte, 42)...)
	arp[16+12], arp[16+13] = 0x08, 0x06
	pcap = append(append([]byte(nil), pcap...), arp...)

	for _, tc := range []struct {
		name   string
		format capture.Format
		data   []byte
		drops  uint64
	}{
		{"qsnd", capture.FormatQSND, qsnd, 0},
		{"pcap", capture.FormatPcap, pcap, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, _ := damageMidRecord(tc.data, tc.format)
			batch, err := Replay(cfg, openStream(t, bad))
			if err != nil {
				t.Fatalf("batch salvage replay: %v", err)
			}
			final, err := streamReplay(StreamConfig{Config: cfg}, openStream(t, bad), 0, nil)
			if err != nil {
				t.Fatalf("stream salvage replay: %v", err)
			}
			a := final.Analysis()
			si, bi := a.Telemetry.Ingest, batch.Telemetry.Ingest
			if si.Format != bi.Format || si.Records != bi.Records || si.DecodeDrops != bi.DecodeDrops ||
				si.CorruptRecords != bi.CorruptRecords || si.ResyncScans != bi.ResyncScans ||
				si.SalvagedBytes != bi.SalvagedBytes || si.SalvageMaxLost != bi.SalvageMaxLost {
				t.Errorf("ingest ledgers differ:\n stream %+v\n batch  %+v", si, bi)
			}
			if si.CorruptRecords != 1 || si.DecodeDrops != tc.drops {
				t.Errorf("ledger = %+v, want 1 corrupt record and %d decode drops", si, tc.drops)
			}
			if got, want := a.OracleObserved().LostRecords, batch.OracleObserved().LostRecords; got != want || got == 0 {
				t.Errorf("oracle loss budget = %d, batch %d, want equal and non-zero", got, want)
			}
			if a.RenderAll() != batch.RenderAll() {
				t.Error("salvaged stream analysis diverged from the salvaged batch analysis")
			}
		})
	}
}

// TestSalvageTransientOneBudget pins that Salvage.MaxRetries is one
// budget whoever drives the reader: a read that fails transiently N times
// in a row is survived — and counted as N retries — by Replay at every
// worker count, ReplayAlerts, streamReplay and capture.Copy alike, and
// one more failure is terminal on all of them, with the injected error.
// (The scatter used to retry the window's failed call again: N²+2N.)
func TestSalvageTransientOneBudget(t *testing.T) {
	cfg, _, qsnd, pcap := salvageFixture(t)
	const budget = 2
	cfg.Salvage = capture.SalvagePolicy{MaxRetries: budget, Sleep: func(time.Duration) {}}
	dcfg := detect.Default()

	type leg struct {
		name string
		run  func(src capture.Source) (telemetryRetries uint64, err error)
	}
	analysed := func(a *Analysis, err error) (uint64, error) {
		if err != nil {
			return 0, err
		}
		return a.Telemetry.Ingest.TransientRetries, nil
	}
	var legs []leg
	for _, workers := range []int{1, 2, 8} {
		wcfg := cfg
		wcfg.Workers = workers
		legs = append(legs, leg{fmt.Sprintf("Replay/workers=%d", workers), func(src capture.Source) (uint64, error) {
			return analysed(Replay(wcfg, src))
		}})
	}
	legs = append(legs,
		leg{"ReplayAlerts", func(src capture.Source) (uint64, error) {
			a, _, err := ReplayAlerts(StreamConfig{Config: cfg, Detect: &dcfg}, src)
			return analysed(a, err)
		}},
		leg{"streamReplay", func(src capture.Source) (uint64, error) {
			final, err := streamReplay(StreamConfig{Config: cfg}, src, 0, nil)
			if err != nil {
				return 0, err
			}
			return analysed(final.Analysis(), nil)
		}},
		leg{"Copy", func(src capture.Source) (uint64, error) {
			capture.SetSalvage(src, cfg.Salvage)
			_, err := capture.Copy(capture.NewSink(io.Discard, capture.FormatQSND), src)
			return capture.SourceSalvage(src).TransientRetries, err
		}})

	for format, data := range map[string][]byte{"qsnd": qsnd, "pcap": pcap} {
		at := uint64(len(data)) / 2
		for _, l := range legs {
			for _, failures := range []int{budget, budget + 1} {
				// The short-read span stops the window's buffer-sized reads
				// just before the failing offset, wherever in the capture.
				src, err := capture.NewSource(faultinject.NewReader(bytes.NewReader(data),
					faultinject.Fault{Kind: faultinject.ShortRead, Offset: at - 1},
					faultinject.Fault{Kind: faultinject.Transient, Offset: at, Count: failures}))
				if err != nil {
					t.Fatal(err)
				}
				retries, err := l.run(src)
				label := fmt.Sprintf("%s/%s/%d failures", format, l.name, failures)
				if failures <= budget {
					if err != nil || retries != budget {
						t.Errorf("%s: err %v after %d retries, want success after %d", label, err, retries, budget)
					}
					continue
				}
				var te *faultinject.TransientError
				if !errors.As(err, &te) || te.Offset != at {
					t.Errorf("%s: err = %v, want the TransientError injected at byte %d", label, err, at)
				}
			}
		}
	}
}
