package quicsand

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/ckpt"
	"quicsand/internal/detect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// floodCapture records the handshake-flood built-in (research scans
// skipped, so every packet is dissected and sessionised) and decodes
// the QSND trace into owned packets: the fixture the dispatch-slab and
// session-log tests drive Offer from.
func floodCapture(t *testing.T, scale float64) (StreamConfig, []byte, []telescope.Packet) {
	t.Helper()
	cfg := goldenConfig("handshake-flood-qfam", scale, goldenIdentity(t), t)
	cfg.SkipResearch = true
	var trace bytes.Buffer
	w := capture.NewSink(&trace, capture.FormatQSND)
	recordCfg := cfg
	recordCfg.Trace = w
	if _, err := Run(recordCfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	src, err := capture.NewSource(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pkts []telescope.Packet
	for {
		p, err := src.Next()
		if err != nil {
			break
		}
		q := *p
		q.Payload = append([]byte(nil), p.Payload...)
		pkts = append(pkts, q)
	}
	if len(pkts) == 0 {
		t.Fatal("empty flood capture")
	}
	dcfg := detect.Default()
	return StreamConfig{Config: cfg, Detect: &dcfg}, trace.Bytes(), pkts
}

// TestStreamBorrowContract pins Offer's borrow-only contract at every
// dispatch shape: the caller keeps ONE Packet and ONE payload buffer,
// and overwrites both — every payload byte included — the moment Offer
// returns. Nothing downstream (dispatch batches, dissector, sessionizer
// anatomy sets, detector windows) may still alias them, so the final
// analysis must equal batch Replay of the clean stream and the alert
// stream must equal an unscribbled run's.
func TestStreamBorrowContract(t *testing.T) {
	scfg, qsnd, pkts := floodCapture(t, 0.004)

	src, err := capture.NewSource(bytes.NewReader(qsnd))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Replay(scfg.Config, src)
	if err != nil {
		t.Fatal(err)
	}
	want := batch.RenderAll()

	for _, workers := range []int{1, 2, 8} {
		cfg := scfg
		cfg.Workers = workers
		run := func(scribble bool) (*Analysis, []detect.Alert) {
			s, err := NewStreamer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var pkt telescope.Packet
			buf := make([]byte, 0, 65535)
			for i := range pkts {
				pkt = pkts[i]
				if pkts[i].Payload != nil {
					buf = append(buf[:0], pkts[i].Payload...)
					pkt.Payload = buf
				}
				if !s.Offer(&pkt) {
					t.Fatalf("workers=%d: packet %d not captured", workers, i)
				}
				if scribble {
					for j := range buf {
						buf[j] = 0xAA
					}
					pkt = telescope.Packet{Src: 0xAAAAAAAA, Size: 0xAAAA, Payload: buf}
				}
			}
			final := s.Close()
			return final.Analysis(), final.Alerts
		}
		got, alerts := run(true)
		if got.RenderAll() != want {
			t.Errorf("workers=%d: scribbling the offered packet changed the analysis (stream no longer equals batch Replay)", workers)
		}
		_, cleanAlerts := run(false)
		if len(alerts) == 0 || !reflect.DeepEqual(alerts, cleanAlerts) {
			t.Errorf("workers=%d: scribbled run drained %d alerts, clean run %d (must be equal and non-empty)",
				workers, len(alerts), len(cleanAlerts))
		}
	}
}

// offerLoopMallocs counts heap allocations from the first Offer through
// Close for one pass over pkts (Mallocs is a monotonic counter: exact,
// not sampled). Substrate construction is excluded.
func offerLoopMallocs(t *testing.T, cfg StreamConfig, workers int, pkts []telescope.Packet) uint64 {
	t.Helper()
	cfg.Workers = workers
	s, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pkts {
		s.Offer(&pkts[i])
	}
	final := s.Close()
	runtime.ReadMemStats(&after)
	if final.Position() != uint64(len(pkts)) {
		t.Fatalf("workers=%d: captured %d of %d packets", workers, final.Position(), len(pkts))
	}
	return after.Mallocs - before.Mallocs
}

// TestStreamOfferSteadyStateAllocs is the dispatch allocation gate. A
// pass over the first N packets and one over the first 2N pay the same
// set-up — engine, queues, the pool's batches — so their malloc
// difference over N is what one more offered packet costs, dispatch to
// its shard worker included: two per packet before the pooled batches
// (≈ 2.07 measured), ≈ 0.01 now (new sessions and detector state, at one
// worker as at two).
func TestStreamOfferSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement streams a mid-size flood")
	}
	scfg, _, pkts := floodCapture(t, 0.02)
	n := len(pkts) / 2
	for _, workers := range []int{1, 2} {
		half := offerLoopMallocs(t, scfg, workers, pkts[:n])
		full := offerLoopMallocs(t, scfg, workers, pkts[:2*n])
		perPkt := (float64(full) - float64(half)) / float64(n)
		t.Logf("workers=%d: %d mallocs over %d packets, %d over %d: %.4f mallocs/packet", workers, half, n, full, 2*n, perPkt)
		if perPkt > 0.05 {
			t.Errorf("workers=%d: an offered packet costs %.4f mallocs, budget 0.05", workers, perPkt)
		}
	}
}

// referenceEncode is the straightforward QCKP v1 encoder — every
// session of every shard encoded afresh, no log — over the streamer's
// own shards; a checkpoint's image must match it byte for byte. The
// shards must be quiescent: call it right after Checkpoint or Close
// returns and before the next Offer (the barrier ordered the workers'
// writes before it, and they have nothing queued).
func referenceEncode(s *Streamer) []byte {
	w := &ckpt.Writer{}
	w.Raw(checkpointMagic)
	w.U64(checkpointVersion)
	w.U64(s.cfg.Seed)
	w.F64(s.cfg.Scale)
	w.String(scenarioName(s.cfg.Config))
	w.U64(uint64(s.cfg.ResearchThin))
	w.Bool(s.cfg.SkipResearch)
	w.U64(uint64(s.workers))
	w.U64(s.position)
	for i, sh := range s.shards {
		sh.tel.EncodeTo(w)
		sh.hourlySource.EncodeTo(w)
		sh.hourlyType.EncodeTo(w)
		sh.sweep.EncodeTo(w)
		sh.commonDet.EncodeTo(w)
		sh.quicSz.EncodeTo(w)
		sh.commonSz.EncodeTo(w)
		m := &sh.dis.Metrics
		for _, v := range []uint64{m.Datagrams, m.Packets, m.ParseFailures, m.Decrypted,
			m.ClientHellos, m.OpenerHits, m.OpenerMisses, m.OpenerResets, sh.nonQUIC} {
			w.U64(v)
		}
		w.U64(uint64(len(sh.sessions)))
		for _, s := range sh.sessions {
			sessions.EncodeSession(w, s)
		}
		w.U64(s.counts[i])
	}
	return w.Bytes()
}

// TestCheckpointEncodeOnce proves the session log changes nothing but
// cost. Over a run with at least five ticks, checkpoint k's Encode and
// Analysis run on their own goroutine while the producer keeps offering
// and takes tick k+1 (which appends to the very log k's image reads a
// prefix of — the race detector watches that sharing), and every image
// must equal: the reference encoder's output over the live shards as
// the tick left them, the image of a fresh streamer fed the same prefix
// with no earlier tick, and the image a streamer resumed from it
// re-encodes at once.
func TestCheckpointEncodeOnce(t *testing.T) {
	scfg, _, pkts := floodCapture(t, 0.01)
	scfg.Workers = 2
	const ticks = 6
	every := len(pkts) / (ticks + 1)

	type frozen struct {
		ck     *StreamCheckpoint
		ref    []byte
		image  []byte
		render string
	}
	s, err := NewStreamer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	var froze []*frozen
	var wg sync.WaitGroup
	logged := 0
	for i := range pkts {
		s.Offer(&pkts[i])
		if n := i + 1; n%every == 0 && len(froze) < ticks {
			f := &frozen{ck: s.Checkpoint()}
			f.ref = referenceEncode(s)
			for _, sh := range s.shards {
				if sh.sessLogN != len(sh.sessions) {
					t.Errorf("tick %d: log covers %d of %d emitted sessions", len(froze), sh.sessLogN, len(sh.sessions))
				}
				logged += sh.sessLogN
			}
			froze = append(froze, f)
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.image = f.ck.Encode()
				f.render = f.ck.Analysis().RenderAll()
			}()
		}
	}
	final := s.Close()
	finalRef := referenceEncode(s)
	wg.Wait()
	if len(froze) < 5 {
		t.Fatalf("run took %d ticks, want at least 5", len(froze))
	}

	for k, f := range froze {
		label := fmt.Sprintf("tick %d (position %d)", k, f.ck.Position())
		if !bytes.Equal(f.image, f.ref) {
			t.Errorf("%s: Encode differs from the reference encoder", label)
		}
		if again := f.ck.Encode(); !bytes.Equal(f.image, again) {
			t.Errorf("%s: Encode after later ticks differs from the concurrent Encode", label)
		}

		fresh, err := NewStreamer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(f.ck.Position()); i++ {
			fresh.Offer(&pkts[i])
		}
		first := fresh.Checkpoint()
		fresh.Close()
		if !bytes.Equal(f.image, first.Encode()) {
			t.Errorf("%s: image differs from a fresh streamer's first tick over the same prefix", label)
		}
		if got := first.Analysis().RenderAll(); got != f.render {
			t.Errorf("%s: concurrent Analysis differs from the fresh streamer's", label)
		}
		wantSessions, wantTotal := first.Analysis().QUICSessions, first.Analysis().Telescope.Total
		if gotSessions, gotTotal := f.ck.Totals(); gotSessions != len(wantSessions) || gotTotal != wantTotal {
			t.Errorf("%s: Totals() = %d sessions, %d packets; Analysis() reduces to %d and %d",
				label, gotSessions, gotTotal, len(wantSessions), wantTotal)
		}

		resumed, err := ResumeStreamer(scfg, f.image)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if re := resumed.Checkpoint().Encode(); !bytes.Equal(f.image, re) {
			t.Errorf("%s: resumed streamer's first tick re-encodes differently", label)
		}
		resumed.Close()
	}
	if logged == 0 {
		t.Error("no tick ever logged an emitted session: the encode-once path was not exercised")
	}

	if !bytes.Equal(final.Encode(), finalRef) {
		t.Error("final checkpoint Encode differs from the reference encoder")
	}
}

// TestCheckpointAllocsIndependentOfActiveSessions holds a tick's
// allocations to a per-shard constant. The barrier encodes each shard
// into one buffer sized from the previous tick's, so a streamer holding
// 4 000 active TCP sessions (inline anatomy sets only) must tick within
// 32 objects per shard of one holding none; a copy of each session
// would cost 4 000.
func TestCheckpointAllocsIndependentOfActiveSessions(t *testing.T) {
	const busyActive = 4000
	for _, workers := range []int{1, 2} {
		cfg := StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: workers}}
		tick := func(active int) float64 {
			s, err := NewStreamer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			first := netmodel.MustAddr("198.18.0.0")
			for i := 0; i < active; i++ {
				s.Offer(&telescope.Packet{
					TS: telescope.Timestamp(i), Src: first + netmodel.Addr(i), Dst: netmodel.TelescopePrefix.Base,
					SrcPort: 40000, DstPort: 80, Proto: telescope.ProtoTCP, Size: 40,
				})
			}
			held := 0
			for _, n := range s.sessionizerBudgetProbe() {
				held += n
			}
			if held != active {
				t.Fatalf("workers=%d: streamer holds %d active sessions, want %d", workers, held, active)
			}
			return testing.AllocsPerRun(20, func() { s.Checkpoint() })
		}
		idle, busy := tick(0), tick(busyActive)
		t.Logf("workers=%d: %.0f allocations per tick at 0 active sessions, %.0f at %d", workers, idle, busy, busyActive)
		if busy > idle+float64(32*workers) {
			t.Errorf("workers=%d: a tick allocates %.0f objects at %d active sessions, %.0f at none; budget %d more",
				workers, busy, busyActive, idle, 32*workers)
		}
	}
}
