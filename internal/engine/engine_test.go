package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// pkt is a test packet keyed by (ts, src); tag rides along unmerged, to
// tell equal-keyed packets apart.
func pkt(ts int, src int, tag uint16) telescope.Packet {
	return telescope.Packet{TS: telescope.Timestamp(ts), Src: netmodel.Addr(src), DstPort: tag}
}

// feedOf replays fixed packets, emitting every one from the same
// variable: the engine must copy what it keeps before the next emit
// overwrites it.
func feedOf(pkts ...telescope.Packet) Feed {
	return func(emit func(*telescope.Packet)) {
		var p telescope.Packet
		for _, v := range pkts {
			p = v
			emit(&p)
		}
	}
}

// tsFeed emits packets with the given timestamps from source src.
func tsFeed(src int, ts ...int) Feed {
	pkts := make([]telescope.Packet, len(ts))
	for i, v := range ts {
		pkts[i] = pkt(v, src, 0)
	}
	return feedOf(pkts...)
}

func TestRunInlineSequential(t *testing.T) {
	var got []telescope.Timestamp
	st := Run(Config{}, []Feed{tsFeed(1, 3, 1, 4, 1, 5)},
		func(shard int, p *telescope.Packet) bool {
			if shard != 0 {
				t.Fatalf("shard %d on single-feed run", shard)
			}
			got = append(got, p.TS)
			return true
		}, nil)
	if fmt.Sprint(got) != "[3 1 4 1 5]" || st.Items() != 5 || st.Workers != 1 {
		t.Fatalf("got %v items=%d workers=%d", got, st.Items(), st.Workers)
	}
	if st.StageNamed("analyze").Items != 5 {
		t.Fatalf("analyze stage = %+v", st.StageNamed("analyze"))
	}
}

func TestRunShardIsolation(t *testing.T) {
	const shards = 4
	feeds := make([]Feed, shards)
	for i := range feeds {
		ts := make([]int, 1000)
		for j := range ts {
			ts[j] = j
		}
		feeds[i] = tsFeed(i, ts...) // each feed emits its own shard index as Src
	}
	var wrong atomic.Int64
	st := Run(Config{Workers: shards}, feeds, func(shard int, p *telescope.Packet) bool {
		if int(p.Src) != shard {
			wrong.Add(1)
		}
		return false
	}, nil)
	if wrong.Load() != 0 {
		t.Fatalf("%d packets processed on the wrong shard", wrong.Load())
	}
	if st.Items() != shards*1000 {
		t.Fatalf("items = %d", st.Items())
	}
	for i, n := range st.ShardItems {
		if n != 1000 {
			t.Fatalf("shard %d processed %d packets", i, n)
		}
	}
}

// TestShardItemsMatchFeeds pins Stats.ShardItems to what each feed
// emitted — uneven counts, an empty feed included — at workers 1/3/8,
// tapped and untapped: the parallel workers count in a local and store
// it once, when their feed returns. Every non-empty feed crosses at
// least two tap batch boundaries.
func TestShardItemsMatchFeeds(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, tapped := range []bool{false, true} {
			emitted := make([]uint64, workers)
			feeds := make([]Feed, workers)
			for i := range feeds {
				n := 2*tapBatch + 1 + 97*i
				if i == 1 {
					n = 0 // one feed of every multi-shard run stays empty
				}
				feeds[i] = func(emit func(*telescope.Packet)) {
					for v := 0; v < n; v++ {
						p := pkt(v*workers+i, i, 0) // increasing per shard, distinct across
						emit(&p)
						emitted[i]++
					}
				}
			}
			var tap *Tap
			var sunk uint64
			if tapped {
				tap = &Tap{Sink: func(*telescope.Packet) { sunk++ }}
			}
			st := Run(Config{Workers: workers}, feeds, func(int, *telescope.Packet) bool { return true }, tap)
			var total uint64
			for i, want := range emitted {
				total += want
				if st.ShardItems[i] != want {
					t.Errorf("workers=%d tap=%v: ShardItems[%d] = %d, feed emitted %d", workers, tapped, i, st.ShardItems[i], want)
				}
			}
			if st.Items() != total || st.StageNamed("analyze").Items != total || (tapped && sunk != total) {
				t.Errorf("workers=%d tap=%v: items %d, analyze stage %d, sunk %d, want %d",
					workers, tapped, st.Items(), st.StageNamed("analyze").Items, sunk, total)
			}
		}
	}
}

// TestTapMergeOrder checks the k-way tap merge restores the canonical
// global order from per-shard sorted streams, for several worker
// counts, each shard crossing at least two batch boundaries mid-stream.
func TestTapMergeOrder(t *testing.T) {
	// Timestamps 0..total-1 dealt round-robin to shards by modulo; each
	// shard stream is increasing, the merged stream must be the tapped
	// subset in order. Even at 8 shards each taps 2/3 of 4*tapBatch.
	const total = 8 * 4 * tapBatch
	for _, cfg := range []Config{{Workers: 2}, {Workers: 3}, {Workers: 8}} {
		feeds := make([]Feed, cfg.Workers)
		for i := range feeds {
			var ts []int
			for v := i; v < total; v += cfg.Workers {
				ts = append(ts, v)
			}
			feeds[i] = tsFeed(i, ts...)
		}
		var merged []int
		st := Run(cfg, feeds,
			func(_ int, p *telescope.Packet) bool { return p.TS%3 != 0 }, // tap a subset
			&Tap{Sink: func(p *telescope.Packet) { merged = append(merged, int(p.TS)) }})
		if !sort.IntsAreSorted(merged) {
			t.Fatalf("cfg %+v: merged stream out of order", cfg)
		}
		want := 0
		for v := 0; v < total; v++ {
			if v%3 != 0 {
				want++
			}
		}
		if len(merged) != want {
			t.Fatalf("cfg %+v: merged %d packets, want %d", cfg, len(merged), want)
		}
		if st.StageNamed("tap").Items != uint64(want) {
			t.Fatalf("tap stage = %+v", st.StageNamed("tap"))
		}
	}
}

// TestTapFullWindow fills every queue the window has. Shard 0 holds
// its first packet back until each other shard has begun to emit packet
// tapBatch × (tapDepth + 1), whose batch no longer fits its queue: the
// merge waits for shard 0's first batch meanwhile, so the other shards
// block on full queues. Shard 0's packets precede all the others', so
// past the first batch of each the merge takes nothing from the other
// queues until shard 0 is done.
func TestTapFullWindow(t *testing.T) {
	const (
		held = 16 * tapBatch
		each = (tapDepth + 2) * tapBatch
	)
	for _, workers := range []int{2, 8} {
		var started sync.WaitGroup
		started.Add(workers - 1)
		feeds := make([]Feed, workers)
		feeds[0] = func(emit func(*telescope.Packet)) {
			started.Wait()
			for v := 0; v < held; v++ {
				p := pkt(v, 0, 0)
				emit(&p)
			}
		}
		for i := 1; i < workers; i++ {
			feeds[i] = func(emit func(*telescope.Packet)) {
				for j := 0; j < each; j++ {
					if j == tapBatch*(tapDepth+1)-1 {
						started.Done()
					}
					p := pkt(held+j*(workers-1)+i-1, i, 0)
					emit(&p)
				}
			}
		}
		var merged []int
		st := Run(Config{Workers: workers}, feeds,
			func(int, *telescope.Packet) bool { return true },
			&Tap{Sink: func(p *telescope.Packet) { merged = append(merged, int(p.TS)) }})
		want := held + (workers-1)*each
		if len(merged) != want {
			t.Fatalf("workers=%d: merged %d packets, want %d", workers, len(merged), want)
		}
		for i, v := range merged {
			if v != i {
				t.Fatalf("workers=%d: merged[%d] = %d, want %d", workers, i, v, i)
			}
		}
		e := &st.Engine
		t.Logf("workers=%d: queue high-water %d, %d of %d sends found the queue full", workers, e.QueueHighWater, e.TapStalls, e.TapBatches)
		if e.QueueHighWater != tapDepth {
			t.Errorf("workers=%d: queue high-water %d, want tapDepth = %d", workers, e.QueueHighWater, tapDepth)
		}
		if e.TapStalls == 0 {
			t.Errorf("workers=%d: no tap send found its queue full", workers)
		}
	}
}

// TestTapBreaksTiesByShard pins the merge order on packets the Tap
// contract forbids — equal (timestamp, source) but from different
// shards: the lower shard index goes first, so even such a stream is
// deterministic. Source breaks timestamp ties before the shard does.
func TestTapBreaksTiesByShard(t *testing.T) {
	feeds := []Feed{
		feedOf(pkt(10, 5, 0), pkt(40, 5, 0)),
		feedOf(pkt(10, 5, 1), pkt(10, 6, 1)),
		feedOf(pkt(10, 5, 2), pkt(10, 5, 2), pkt(10, 7, 2)),
	}
	var got []string
	Run(Config{}, feeds, func(int, *telescope.Packet) bool { return true }, &Tap{
		Sink: func(p *telescope.Packet) { got = append(got, fmt.Sprintf("%d/%d@%d", p.TS, p.Src, p.DstPort)) },
	})
	want := []string{"10/5@0", "10/5@1", "10/5@2", "10/5@2", "10/6@1", "10/7@2", "40/5@0"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestTapEqualsSequential is the engine-level determinism property:
// the tapped stream for any worker count equals the 1-worker stream,
// provided packets with equal (timestamp, source) share a shard.
func TestTapEqualsSequential(t *testing.T) {
	// Build per-src streams with colliding timestamps, each long enough
	// to cross two tap batch boundaries on its own; tag numbers a
	// source's packets, so per-shard stability shows in the output.
	streams := map[int][]telescope.Packet{}
	for src := 0; src < 13; src++ {
		ts := src % 3
		for j := 0; j < 2*tapBatch+1; j++ {
			streams[src] = append(streams[src], pkt(ts, src, uint16(j)))
			if j%4 != 0 {
				ts += j % 5 // repeated timestamps within a src
			}
		}
	}
	less := func(a, b telescope.Packet) bool {
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Src < b.Src
	}
	render := func(workers int) string {
		// Partition srcs over shards, k-way merge within each shard
		// (stable for equal keys) to mimic the ibr shard mergers.
		groups := make([][]telescope.Packet, workers)
		for src := 0; src < 13; src++ {
			g := src % workers
			merged := append(groups[g], streams[src]...)
			sort.SliceStable(merged, func(i, j int) bool { return less(merged[i], merged[j]) })
			groups[g] = merged
		}
		feeds := make([]Feed, workers)
		for i := range feeds {
			feeds[i] = feedOf(groups[i]...)
		}
		var b strings.Builder
		Run(Config{Workers: workers}, feeds,
			func(int, *telescope.Packet) bool { return true },
			&Tap{Sink: func(p *telescope.Packet) { fmt.Fprintf(&b, "%d/%d/%d ", p.TS, p.Src, p.DstPort) }})
		return b.String()
	}
	want := render(1)
	for _, w := range []int{2, 3, 8} {
		if got := render(w); got != want {
			t.Fatalf("workers=%d tap stream diverged", w)
		}
	}
}

func TestStatsString(t *testing.T) {
	st := &Stats{Workers: 2, ShardItems: []uint64{5, 7}, Stages: []Stage{{Name: "analyze", Items: 12, Wall: 1000}}, Wall: 1000}
	out := st.String()
	for _, want := range []string{"2 workers", "12 items", "analyze"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats string missing %q:\n%s", want, out)
		}
	}
	if st.Items() != 12 {
		t.Errorf("items = %d", st.Items())
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := (Config{Workers: 3}).ResolveWorkers(); got != 3 {
		t.Errorf("explicit workers = %d", got)
	}
	if got := (Config{}).ResolveWorkers(); got < 1 {
		t.Errorf("default workers = %d", got)
	}
	if got := (Config{Workers: -2}).ResolveWorkers(); got != 1 {
		t.Errorf("negative workers = %d", got)
	}
}
