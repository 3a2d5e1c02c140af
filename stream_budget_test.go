package quicsand

import (
	"runtime"
	"testing"
	"time"

	"quicsand/internal/detect"
	"quicsand/internal/handshake"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/telescope"
)

// budgetStream drives a streamer with a synthetic high-concurrency
// QUIC workload that exercises every session exit path: 64 sources
// handshake repeatedly inside one 5-minute timeout (the active set
// piles up), the same sources return after a >timeout gap (inline
// timeout splits plus a lazy sweep), and Close flushes the remainder.
// probe runs after every captured packet.
func budgetStream(t *testing.T, s *Streamer, probe func(captured uint64)) {
	t.Helper()
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "budget.test"})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	var captured uint64
	offer := func(src netmodel.Addr, ts telescope.Timestamp) {
		p := &telescope.Packet{
			TS: ts, Src: src, Dst: netmodel.TelescopePrefix.Base,
			SrcPort: 40000, DstPort: 443, Proto: telescope.ProtoUDP,
			Size: uint16(len(initial)), Payload: initial,
		}
		if s.Offer(p) {
			captured++
			probe(captured)
		}
	}
	const sources = 64
	// Burst phase: five rounds well inside the 5-minute session
	// timeout, so every source's session stays active concurrently.
	for round := telescope.Timestamp(0); round < 5; round++ {
		for i := 0; i < sources; i++ {
			offer(netmodel.Addr(0x0a010000+i), round*1000)
		}
	}
	// Return phase: a 10-minute gap splits the survivors inline and
	// arms the lazy sweep; a second visit 10 minutes later sweeps the
	// returners that stay quiet.
	for i := 0; i < sources; i++ {
		offer(netmodel.Addr(0x0a010000+i), 10*60*1000)
	}
	for i := 0; i < 4; i++ {
		offer(netmodel.Addr(0x0a010000+i), 20*60*1000)
	}
}

// TestStreamSessionBudget enforces the hard memory budget end to end:
// with MaxActiveSessions set, every probe of the live sessionizers
// stays under the bound while the stream runs, evictions are counted
// in telemetry, and the session conservation identity still holds —
// every emitted session is accounted to exactly one exit path.
func TestStreamSessionBudget(t *testing.T) {
	const budget = 8
	cfg := Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 2}
	s, err := NewStreamer(StreamConfig{Config: cfg, MaxActiveSessions: budget})
	if err != nil {
		t.Fatal(err)
	}
	budgetStream(t, s, func(captured uint64) {
		if captured%64 != 0 {
			return
		}
		for i, n := range s.sessionizerBudgetProbe() {
			if n > budget {
				t.Fatalf("probe at packet %d: sessionizer %d holds %d active sessions, budget %d",
					captured, i, n, budget)
			}
		}
	})
	sm := s.Close().Analysis().Telemetry.Sessions
	if sm.BudgetEvicted == 0 {
		t.Fatal("budget never evicted a session; the bound was not exercised")
	}
	if got, want := sm.Emitted, sm.TimeoutSplits+sm.SweepEvicted+sm.FlushEmitted+sm.BudgetEvicted; got != want {
		t.Errorf("session conservation broken: emitted %d, exit paths sum to %d (%+v)", got, want, sm)
	}

	// The unbudgeted twin proves two things: the same workload really
	// does exceed the budget when unconstrained (the bounded run's
	// probes were not vacuous), and the conservation identity holds
	// with a zero eviction term — every other exit path populated.
	free, err := NewStreamer(StreamConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	budgetStream(t, free, func(captured uint64) {
		if captured%64 != 0 {
			return
		}
		for _, n := range free.sessionizerBudgetProbe() {
			if n > peak {
				peak = n
			}
		}
	})
	fm := free.Close().Analysis().Telemetry.Sessions
	if peak <= budget {
		t.Fatalf("unbudgeted peak %d never exceeded the budget %d; workload too small", peak, budget)
	}
	if fm.BudgetEvicted != 0 {
		t.Errorf("unbudgeted run evicted %d sessions", fm.BudgetEvicted)
	}
	if fm.TimeoutSplits == 0 || fm.SweepEvicted == 0 || fm.FlushEmitted == 0 {
		t.Errorf("workload left an exit path unexercised: %+v", fm)
	}
	if got, want := fm.Emitted, fm.TimeoutSplits+fm.SweepEvicted+fm.FlushEmitted; got != want {
		t.Errorf("unbudgeted conservation broken: emitted %d, exit paths sum to %d", got, want)
	}
}

// TestStreamDetectBudgetKeepsHotSources bounds detector memory under
// spoofed sources without losing flood alerts. Every backscatter packet
// of a checked flood victim is followed by one packet from a source
// never heard again, so far more sources than the budget are heard
// within each window. The run's one source budget (MaxActiveSessions)
// evicts those one-packet sources, counted in telemetry, while the
// flooded victims stay resident, so the budgeted alert stream still
// satisfies the ledger-derived oracle bounds at zero tolerance.
func TestStreamDetectBudgetKeepsHotSources(t *testing.T) {
	const budget = 16
	id := goldenIdentity(t)
	cfg := goldenConfig("handshake-flood-qfam", 0.01, id, t)
	cfg.Workers = 2
	dcfg := detect.Default()
	ae, err := ExpectAlerts(cfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Guaranteed == 0 {
		t.Fatal("no guaranteed cluster; the budget test proves nothing")
	}
	s, gen, err := newStreamer(StreamConfig{Config: cfg, Detect: &dcfg, MaxActiveSessions: budget}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spoofed sources walk 198.18.0.0/15, skipping any checked victim.
	next := netmodel.MustAddr("198.18.0.0")
	spoof := func(p *telescope.Packet) {
		for ae.Victims[next] != nil {
			next++
		}
		q := *p
		q.Src, q.Payload = next, nil
		next++
		s.Offer(&q)
	}
	spoofed := 0
	mergers := gen.Feeds(1, true)
	mergers[0].Run(func(p *telescope.Packet) {
		if s.Offer(p) && p.IsResponse() && ae.Victims[p.Src] != nil {
			spoof(p)
			spoofed++
		}
	})
	final := s.Close()
	tel := final.Analysis().Telemetry
	dm := tel.Detect
	t.Logf("%d spoofed sources, %d detector evictions", spoofed, dm.SourcesEvicted)
	if dm.SourcesEvicted == 0 {
		t.Fatal("detector budget never evicted a source; the bound was not exercised")
	}
	// The bank's sources are a subset of the QUIC sessionizer's active
	// sessions, so each detector eviction is also a session eviction.
	if dm.SourcesEvicted > tel.Sessions.BudgetEvicted {
		t.Errorf("%d detector evictions but only %d session evictions", dm.SourcesEvicted, tel.Sessions.BudgetEvicted)
	}
	results := oracle.CheckAlerts(ae, final.Alerts)
	if n := oracle.CountViolations(results); n != 0 {
		for _, r := range results {
			if !r.OK && !r.Detail {
				t.Errorf("%s: want %s, got %s", r.Name, r.Want, r.Got)
			}
		}
		t.Fatalf("budgeted alert stream violates %d oracle checks", n)
	}
}

// TestStreamerNoGoroutineLeak cycles the streamer lifecycle — shard
// workers, mid-stream checkpoints, close — and asserts the
// goroutine count returns to baseline.
func TestStreamerNoGoroutineLeak(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 8}}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		budgetStream(t, s, func(captured uint64) {
			if captured == 150 {
				s.Checkpoint() // a checkpoint op with workers mid-stream
			}
		})
		s.Close()
		s.Close() // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sessionizerBudgetProbe reports the shards' current active-session
// counts (QUIC then common, per shard) — the lifecycle tests assert
// the memory budget holds while streaming. It reads them off a
// checkpoint's decoded image, the only view of a live shard from
// outside its feed.
func (s *Streamer) sessionizerBudgetProbe() []int {
	_, shards, _, err := decodeCheckpoint(s.Checkpoint().Encode())
	if err != nil {
		panic(err)
	}
	var out []int
	for _, sh := range shards {
		out = append(out, sh.quicSz.ActiveSessions(), sh.commonSz.ActiveSessions())
	}
	return out
}
