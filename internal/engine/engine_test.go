package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// feedOf replays a fixed int slice.
func feedOf(items ...int) Feed[int] {
	return func(emit func(int)) {
		for _, v := range items {
			emit(v)
		}
	}
}

func TestRunInlineSequential(t *testing.T) {
	var got []int
	st := Run(Config{}, []Feed[int]{feedOf(3, 1, 4, 1, 5)},
		func(shard int, v int) bool {
			if shard != 0 {
				t.Fatalf("shard %d on single-feed run", shard)
			}
			got = append(got, v)
			return true
		}, nil)
	if len(got) != 5 || st.Items() != 5 || st.Workers != 1 {
		t.Fatalf("got %v items=%d workers=%d", got, st.Items(), st.Workers)
	}
	if st.StageNamed("analyze").Items != 5 {
		t.Fatalf("analyze stage = %+v", st.StageNamed("analyze"))
	}
}

func TestRunShardIsolation(t *testing.T) {
	const shards = 4
	feeds := make([]Feed[int], shards)
	for i := range feeds {
		i := i
		feeds[i] = func(emit func(int)) {
			for j := 0; j < 1000; j++ {
				emit(i) // each feed emits its own shard index
			}
		}
	}
	var wrong atomic.Int64
	st := Run(Config{Workers: shards}, feeds, func(shard int, v int) bool {
		if v != shard {
			wrong.Add(1)
		}
		return false
	}, nil)
	if wrong.Load() != 0 {
		t.Fatalf("%d items processed on the wrong shard", wrong.Load())
	}
	if st.Items() != shards*1000 {
		t.Fatalf("items = %d", st.Items())
	}
	for i, n := range st.ShardItems {
		if n != 1000 {
			t.Fatalf("shard %d processed %d items", i, n)
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
			feeds := make([]Feed[int], workers)
			for i := range feeds {
				i := i
				n := 2*tapBatch + 1 + 97*i
				if i == 1 {
					n = 0 // one feed of every multi-shard run stays empty
				}
				feeds[i] = func(emit func(int)) {
					for v := 0; v < n; v++ {
						emit(v*workers + i) // increasing per shard, distinct across
						emitted[i]++
					}
				}
			}
			var tap *Tap[int]
			var sunk uint64
			if tapped {
				tap = &Tap[int]{Less: func(a, b int) bool { return a < b }, Sink: func(int) { sunk++ }}
			}
			st := Run(Config{Workers: workers}, feeds, func(int, int) bool { return true }, tap)
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
	// Items 0..total-1 dealt round-robin to shards by modulo; each shard
	// stream is increasing, the merged stream must be the tapped subset
	// in order. Even at 8 shards each taps 2/3 of 4*tapBatch items.
	const total = 8 * 4 * tapBatch
	for _, cfg := range []Config{{Workers: 2}, {Workers: 3}, {Workers: 8}} {
		feeds := make([]Feed[int], cfg.Workers)
		for i := range feeds {
			i := i
			feeds[i] = func(emit func(int)) {
				for v := i; v < total; v += cfg.Workers {
					emit(v)
				}
			}
		}
		var merged []int
		st := Run(cfg, feeds,
			func(shard, v int) bool { return v%3 != 0 }, // tap a subset
			&Tap[int]{
				Less: func(a, b int) bool { return a < b },
				Sink: func(v int) { merged = append(merged, v) },
			})
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
			t.Fatalf("cfg %+v: merged %d items, want %d", cfg, len(merged), want)
		}
		if st.StageNamed("tap").Items != uint64(want) {
			t.Fatalf("tap stage = %+v", st.StageNamed("tap"))
		}
	}
}

// TestTapBreaksTiesByShard pins the merge order on items the Tap
// contract forbids — equal under Less but from different shards: the
// lower shard index goes first, so even such a stream is deterministic.
func TestTapBreaksTiesByShard(t *testing.T) {
	type item struct{ key, shard int }
	keys := [][]int{{10, 40}, {10}, {10, 10}}
	feeds := make([]Feed[item], len(keys))
	for i := range feeds {
		feeds[i] = func(emit func(item)) {
			for _, k := range keys[i] {
				emit(item{k, i})
			}
		}
	}
	var got []item
	Run(Config{}, feeds, func(int, item) bool { return true }, &Tap[item]{
		Less: func(a, b item) bool { return a.key < b.key },
		Sink: func(v item) { got = append(got, v) },
	})
	want := []item{{10, 0}, {10, 1}, {10, 2}, {10, 2}, {40, 0}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestTapEqualsSequential is the engine-level determinism property:
// the tapped stream for any worker count equals the 1-worker stream,
// provided equal-comparing items share a shard.
func TestTapEqualsSequential(t *testing.T) {
	type item struct{ ts, src int }
	// Build per-src streams with colliding timestamps (same src only),
	// each long enough to cross two tap batch boundaries on its own.
	streams := map[int][]item{}
	for src := 0; src < 13; src++ {
		ts := src % 3
		for j := 0; j < 2*tapBatch+1; j++ {
			streams[src] = append(streams[src], item{ts: ts, src: src})
			if j%4 != 0 {
				ts += j % 5 // repeated timestamps within a src
			}
		}
	}
	less := func(a, b item) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.src < b.src
	}
	render := func(workers int) string {
		// Partition srcs over shards, k-way merge within each shard
		// (stable for equal keys) to mimic the ibr shard mergers.
		groups := make([][]item, workers)
		for src := 0; src < 13; src++ {
			g := src % workers
			merged := append(groups[g], streams[src]...)
			sort.SliceStable(merged, func(i, j int) bool { return less(merged[i], merged[j]) })
			groups[g] = merged
		}
		feeds := make([]Feed[item], workers)
		for i := range feeds {
			i := i
			feeds[i] = func(emit func(item)) {
				for _, v := range groups[i] {
					emit(v)
				}
			}
		}
		var b strings.Builder
		Run(Config{Workers: workers}, feeds,
			func(int, item) bool { return true },
			&Tap[item]{Less: less, Sink: func(v item) { fmt.Fprintf(&b, "%d/%d ", v.ts, v.src) }})
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
