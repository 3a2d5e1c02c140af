package engine

import (
	"sort"
	"testing"
	"time"

	"quicsand/internal/ibr"
	"quicsand/internal/telescope"
)

// TestStageZeroWall pins the division guards: a stage that recorded no
// wall time (or a clock hiccup driving it negative) reports zero
// throughput instead of +Inf/NaN.
func TestStageZeroWall(t *testing.T) {
	if got := (Stage{Items: 100, Wall: 0}).PerSecond(); got != 0 {
		t.Errorf("zero-wall PerSecond = %g, want 0", got)
	}
	if got := (Stage{Items: 100, Wall: -time.Second}).PerSecond(); got != 0 {
		t.Errorf("negative-wall PerSecond = %g, want 0", got)
	}
	if got := (Stage{Items: 1000, Wall: time.Second}).PerSecond(); got != 1000 {
		t.Errorf("PerSecond = %g, want 1000", got)
	}
}

// TestStatsThroughputZeroWall covers Throughput of a Stats with no wall
// time.
func TestStatsThroughputZeroWall(t *testing.T) {
	st := &Stats{ShardItems: []uint64{500, 500}}
	if got := st.Throughput(); got != 0 {
		t.Errorf("zero-wall Throughput = %g, want 0", got)
	}
	st.Wall = 2 * time.Second
	if got := st.Throughput(); got != 500 {
		t.Errorf("Throughput = %g, want 500", got)
	}
}

// TestStageNamedMissing asserts lookups of absent stages return a zero
// Stage rather than panicking or matching a prefix.
func TestStageNamedMissing(t *testing.T) {
	st := &Stats{Stages: []Stage{{Name: "analyze", Items: 7, Wall: time.Second}}}
	if got := st.StageNamed("analyze"); got.Items != 7 {
		t.Errorf("StageNamed(analyze) = %+v", got)
	}
	if got := st.StageNamed("anal"); got != (Stage{}) {
		t.Errorf("StageNamed(prefix) = %+v, want zero Stage", got)
	}
	if got := st.StageNamed("nope"); got != (Stage{}) {
		t.Errorf("StageNamed(missing) = %+v, want zero Stage", got)
	}
}

// TestEngineTelemetryInvariants checks the tap-machinery accounting on
// real tapped runs: every batch sent was either freshly allocated or
// recycled (TapBatches == BufAllocs + BufReuses), the fill histogram
// saw every batch and every tapped item — one shard included, which
// runs the same tap machinery as any other count.
func TestEngineTelemetryInvariants(t *testing.T) {
	// Even at 8 shards each crosses two tap batch boundaries.
	const total = 8 * (2*tapBatch + 1)
	for _, workers := range []int{1, 2, 4, 8} {
		feeds := make([]Feed, workers)
		for i := range feeds {
			var ts []int
			for v := i; v < total; v += workers {
				ts = append(ts, v)
			}
			feeds[i] = tsFeed(i, ts...)
		}
		var merged []int
		st := Run(Config{Workers: workers}, feeds,
			func(int, *telescope.Packet) bool { return true },
			&Tap{Sink: func(p *telescope.Packet) { merged = append(merged, int(p.TS)) }})
		e := &st.Engine
		if !sort.IntsAreSorted(merged) || len(merged) != total {
			t.Fatalf("workers=%d: merge broken (%d items)", workers, len(merged))
		}
		if e.TapBatches < 3*uint64(workers) {
			t.Fatalf("workers=%d: %d tap batches counted, want at least 3 per shard", workers, e.TapBatches)
		}
		if e.TapBatches != e.BufAllocs+e.BufReuses {
			t.Errorf("workers=%d: TapBatches %d != BufAllocs %d + BufReuses %d",
				workers, e.TapBatches, e.BufAllocs, e.BufReuses)
		}
		if e.TapBatchFill.Count != e.TapBatches {
			t.Errorf("workers=%d: fill count %d != batches %d",
				workers, e.TapBatchFill.Count, e.TapBatches)
		}
		if e.TapBatchFill.Sum != total {
			t.Errorf("workers=%d: fill sum %d != %d tapped items",
				workers, e.TapBatchFill.Sum, total)
		}
	}
}

// TestTapFreeListHoldsEveryBatch records a generated month through the
// tap at workers 1, 2 and 8 and checks that no shard allocated more tap
// batches than it can hold at once (one filling, tapDepth queued, one
// merging): the free list has room for all of them, so the merge never
// drops a drained batch for the worker to allocate again. The sink also
// checks the merged stream is in canonical order.
func TestTapFreeListHoldsEveryBatch(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		gen, err := ibr.New(ibr.Config{Seed: 7, Scale: 0.01}) // a month is drained once
		if err != nil {
			t.Fatal(err)
		}
		feeds := make([]Feed, workers)
		for i, m := range gen.Feeds(workers, true) {
			feeds[i] = m.Run
		}
		var last telescope.Packet
		var n, disorder uint64
		st := Run(Config{Workers: workers}, feeds,
			func(int, *telescope.Packet) bool { return true },
			&Tap{Sink: func(p *telescope.Packet) {
				if p.TS < last.TS || (p.TS == last.TS && p.Src < last.Src) {
					disorder++
				}
				last = *p
				n++
			}})
		e := &st.Engine
		if n != st.Items() || disorder != 0 {
			t.Fatalf("workers=%d: merged %d of %d packets, %d out of order", workers, n, st.Items(), disorder)
		}
		if e.TapBatches < 100*uint64(workers) {
			t.Fatalf("workers=%d: only %d tap batches", workers, e.TapBatches)
		}
		t.Logf("workers=%d: %d tap batches, %d allocated", workers, e.TapBatches, e.BufAllocs)
		if max := uint64(workers * tapBatches); e.BufAllocs > max {
			t.Errorf("workers=%d: %d tap batches allocated of %d sent, want ≤ %d", workers, e.BufAllocs, e.TapBatches, max)
		}
	}
}

// StageNamed returns the stage with the given name, or a zero Stage.
func (st *Stats) StageNamed(name string) Stage {
	for _, s := range st.Stages {
		if s.Name == name {
			return s
		}
	}
	return Stage{}
}
