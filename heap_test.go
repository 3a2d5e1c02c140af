package quicsand

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// The budgets below are the largest retained heap of eight runs, with
// and without -race, plus 10 %, measured with go1.24 on linux/amd64.
// Each test fails at the code before the change it guards by far more
// than the slack: see each budget's comment.

// analysisHeapBudget bounds a held multi-vector-burst Analysis (seed 7,
// scale 0.1, two workers: 666 QUIC sessions, 86 QUIC and 1 019 TCP/ICMP
// attacks). Measured 271 952 B. While finished sessions kept their
// anatomy sets until reduce (a 352-byte struct after) it was 367 552 B;
// before that and before attacks became values, 595 920 B.
const analysisHeapBudget = 299_200

// idleStreamerHeapBudget bounds an idle streamer (handshake-flood-qfam,
// scale 0.1, two workers): measured 17 208 B. When the streamer kept
// its plan it also held the active-scan census and the ground truth,
// 564 240 B in all.
const idleStreamerHeapBudget = 18_900

// loggedSessionHeapBudget bounds what a live streamer's shard keeps per
// session it has emitted and logged: the session's encoded bytes.
// Measured 33 B, ticking or not; 89 B while the shard also kept an entry
// per source in the sessionizer's last-seen table and the timeout
// sweep's source set (QCKP v2), and 111 B while the log wrote each
// session's sets (QCKP v1). When a shard kept its sessions as objects
// until a tick logged them it was 471 B, and a shard that never ticked
// kept them all so.
const loggedSessionHeapBudget = 36

// liveHeap is the live heap after two full collections: the second
// frees what sync.Pool victim caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapRetainedBy returns how much live heap build's result holds: the
// live heap while the result is held, less the live heap before build
// ran. build runs once beforehand, so process-wide state built lazily on
// first use (the generator's identity, payload templates) is not
// counted. done gets each result once it is measured.
func heapRetainedBy[T any](t *testing.T, build func() T, done func(T)) int64 {
	t.Helper()
	done(build())
	before := liveHeap()
	v := build()
	after := liveHeap()
	done(v)
	return int64(after) - int64(before)
}

// TestAnalysisRetainedHeap holds a finished run to what its readers
// use: sessions as their answers (counts in place of the anatomy sets
// the sessionizer dropped when each finished) and attacks as values,
// the QUIC anatomy behind a pointer only QUIC attacks set.
func TestAnalysisRetainedHeap(t *testing.T) {
	sc, err := scenario.Builtin("multi-vector-burst")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Scale: 0.1, Workers: 2, Scenario: sc}
	var shape string
	got := heapRetainedBy(t, func() *Analysis {
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}, func(a *Analysis) {
		shape = fmt.Sprintf("%d QUIC sessions, %d QUIC and %d TCP/ICMP attacks",
			len(a.QUICSessions), len(a.QUICDetector.Attacks), len(a.CommonDetector.Attacks))
	})
	t.Logf("held Analysis retains %d B (%s; budget %d B)", got, shape, analysisHeapBudget)
	if got > analysisHeapBudget {
		t.Errorf("a held multi-vector-burst Analysis retains %d B, budget %d B", got, analysisHeapBudget)
	}
}

// TestStreamerIdleRetainedHeap holds an idle daemon streamer to what it
// reads: its config, the shards and their queues. The census and the
// ground truth are planning's, and each checkpoint's Analysis prepares
// its own.
func TestStreamerIdleRetainedHeap(t *testing.T) {
	sc, err := scenario.Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Config: Config{Seed: 7, Scale: 0.1, SkipResearch: true, Workers: 2, Scenario: sc}}
	got := heapRetainedBy(t, func() *Streamer {
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, func(s *Streamer) { s.Close() })
	t.Logf("idle streamer retains %d B (budget %d B)", got, idleStreamerHeapBudget)
	if got > idleStreamerHeapBudget {
		t.Errorf("an idle streamer retains %d B, budget %d B", got, idleStreamerHeapBudget)
	}
}

// TestStreamerLoggedSessionsRetainedHeap holds a live streamer's
// finished sessions to their encoded bytes: a session is logged as it
// finishes, and the shard drops the object. It drives one streamer
// shard — what a daemon holds per worker, without the dispatch batches
// whose number depends on scheduling — through n single-packet QUIC
// sessions spaced past the timeout, so each packet's sweep closes the
// session before it; then it freezes the shard as a tick does, or never
// does, as a daemon with no output to write never ticks.
func TestStreamerLoggedSessionsRetainedHeap(t *testing.T) {
	const n = 4000
	cfg := StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 1}}
	first := netmodel.MustAddr("198.18.0.0")
	start := telescope.TS(telescope.MeasurementStart)
	gap := telescope.Timestamp((sessions.DefaultTimeout + time.Minute) / time.Millisecond)
	for _, tick := range []bool{true, false} {
		t.Run(fmt.Sprintf("tick=%v", tick), func(t *testing.T) {
			shard := func(packets int) func() *pipelineShard {
				return func() *pipelineShard {
					_, _, shards, err := planPipeline(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					sh := shards[0]
					sh.logFinished()
					for i := 0; i < packets; i++ {
						sh.process(&telescope.Packet{
							TS: start + telescope.Timestamp(i)*gap, Src: first + netmodel.Addr(i), Dst: netmodel.TelescopePrefix.Base,
							SrcPort: 40000, DstPort: telescope.PortQUIC, Proto: telescope.ProtoUDP, Size: 1200,
						})
					}
					if logged := int(sh.quicSz.Metrics.Emitted); packets > 0 && (logged != packets-1 || len(sh.sessions) != 0) {
						t.Fatalf("the shard logged %d sessions and holds %d, want %d and 0", logged, len(sh.sessions), packets-1)
					}
					if tick {
						if f := sh.freeze(0, uint64(packets), false); f.quicSessions != packets {
							t.Fatalf("the tick counts %d QUIC sessions, want %d", f.quicSessions, packets)
						}
					}
					return sh
				}
			}
			keep := func(*pipelineShard) {}
			perSession := float64(heapRetainedBy(t, shard(n+1), keep)-heapRetainedBy(t, shard(1), keep)) / n
			t.Logf("a logged session retains %.0f B (budget %d B)", perSession, loggedSessionHeapBudget)
			if perSession > loggedSessionHeapBudget {
				t.Errorf("a live shard retains %.0f B per logged session, budget %d B", perSession, loggedSessionHeapBudget)
			}
		})
	}
}
