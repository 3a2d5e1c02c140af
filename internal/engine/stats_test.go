package engine

import (
	"sort"
	"testing"
	"time"
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
		feeds := make([]Feed[int], workers)
		for i := range feeds {
			i := i
			feeds[i] = func(emit func(int)) {
				for v := i; v < total; v += workers {
					emit(v)
				}
			}
		}
		var merged []int
		st := Run(Config{Workers: workers}, feeds,
			func(shard, v int) bool { return true },
			&Tap[int]{
				Less: func(a, b int) bool { return a < b },
				Sink: func(v int) { merged = append(merged, v) },
			})
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

// StageNamed returns the stage with the given name, or a zero Stage.
func (st *Stats) StageNamed(name string) Stage {
	for _, s := range st.Stages {
		if s.Name == name {
			return s
		}
	}
	return Stage{}
}
