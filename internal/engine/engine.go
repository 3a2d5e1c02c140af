// Package engine implements the sharded concurrent pipeline the
// measurement analyses run on: a set of per-shard item streams (feeds)
// is processed by one worker goroutine per shard with zero cross-shard
// locking on the hot path, while an optional tap merges every shard's
// emissions back into a single canonically ordered stream (the trace
// checkpoint path). Shard states are reduced by the caller after Run
// returns; provided the reduction is order-independent (commutative
// counter merges, canonical sorts), any worker count produces results
// bit-identical to the sequential single-shard run — see DESIGN.md §8.
//
// The engine is generic over the item type and knows nothing about
// packets: quicsand.Run, Replay and the Streamer drive it with
// *telescope.Packet items — a generated month, a stored capture, or the
// live traffic cmd/telescoped offers to a Streamer.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"quicsand/internal/losertree"
	"quicsand/internal/telemetry"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Workers is the shard count. 0 selects GOMAXPROCS. One shard sees
	// the whole stream in canonical order — the sequential reference,
	// against which every other count is bit-identical — and runs on
	// the same worker loop as any other count.
	Workers int
	// Recorder, when non-nil, is the run's flight recorder (DESIGN.md
	// §15): every SliceItems items each worker closes an analyze span
	// (time inside process) and a feed span (time outside it) on its
	// shard ring, samples its tap queue depth, and the tap merge slices
	// its own span stream on the driver ring. nil — the default — makes
	// every instrumented site a single predictable nil check.
	Recorder *telemetry.Recorder
	// FeedStage labels the worker's feed-side span track: what the
	// shard is doing when it is not inside process. Live runs generate
	// (telemetry.StageGenerate — the zero Stage maps here), replays
	// drain scatter queues and streamers their dispatch queues
	// (StageScatter).
	FeedStage telemetry.Stage
}

// feedStage resolves the feed-side track label; the zero value
// (StagePlan, which no feed can be) selects StageGenerate.
func (c Config) feedStage() telemetry.Stage {
	if c.FeedStage == telemetry.StagePlan {
		return telemetry.StageGenerate
	}
	return c.FeedStage
}

// ResolveWorkers returns the effective shard count.
func (c Config) ResolveWorkers() int {
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

const (
	// tapBatch is the number of items per tap batch. Larger batches
	// amortize channel operations; smaller ones bound the reordering
	// buffer.
	tapBatch = 256
	// tapDepth is the per-shard tap queue depth in batches. Together
	// with tapBatch it bounds how far a fast shard can run ahead of the
	// tap merge — the pipeline's backpressure window.
	tapDepth = 4
)

// Feed streams one shard's items, in that shard's canonical order, by
// calling emit once per item. It runs on the shard's worker goroutine
// and returns at end of stream.
type Feed[T any] func(emit func(T))

// Tap reassembles the per-shard streams into one globally ordered
// stream. Sink observes every item that Process kept, in the unique
// order defined by Less — independent of the worker count.
type Tap[T any] struct {
	// Less must be a strict weak ordering consistent across shards.
	// Items comparing equal must originate from the same shard: the
	// merge is stable within a shard but breaks cross-shard ties by
	// shard index, which varies with the worker count.
	Less func(a, b T) bool
	// Sink receives the merged stream on the caller's goroutine.
	Sink func(T)
}

// Stage records one pipeline stage's volume and latency.
type Stage struct {
	Name  string
	Items uint64
	Wall  time.Duration
}

// PerSecond returns the stage throughput in items per second.
func (s Stage) PerSecond() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Items) / s.Wall.Seconds()
}

// Stats exposes per-stage throughput for one pipeline run. The engine
// fills the shard fields and the "analyze" (and, when tapped, "tap")
// stages; callers append their own stages (scheduling, reduction).
type Stats struct {
	// Workers is the shard count the run used.
	Workers int
	// ShardItems counts items processed per shard.
	ShardItems []uint64
	// ShardBusy is each shard worker's busy wall time.
	ShardBusy []time.Duration
	// Stages lists stage metrics in pipeline order.
	Stages []Stage
	// Wall is the total wall time, set by the caller via Finish.
	Wall time.Duration
	// Engine holds the tap/recycling telemetry merged across shards.
	// These counters are runtime-dependent (batch boundaries and buffer
	// reuse vary with scheduling), not part of the deterministic stream
	// projection.
	Engine telemetry.Engine

	start time.Time
}

// NewStats creates a Stats anchored at the current time; Finish stamps
// the total wall duration.
func NewStats(workers int) *Stats {
	return &Stats{Workers: workers, start: time.Now()}
}

// AddStage appends a caller-defined stage.
func (st *Stats) AddStage(name string, items uint64, wall time.Duration) {
	st.Stages = append(st.Stages, Stage{Name: name, Items: items, Wall: wall})
}

// Finish stamps the total wall time.
func (st *Stats) Finish() { st.Wall = time.Since(st.start) }

// Items returns the total item count across shards.
func (st *Stats) Items() uint64 {
	var n uint64
	for _, v := range st.ShardItems {
		n += v
	}
	return n
}

// StageTimings returns the stages in manifest form.
func (st *Stats) StageTimings() []telemetry.StageTiming {
	var out []telemetry.StageTiming
	for _, s := range st.Stages {
		out = append(out, telemetry.StageTiming{Name: s.Name, Items: s.Items, WallNS: s.Wall.Nanoseconds()})
	}
	return out
}

// Throughput returns overall items per second over the total wall time.
func (st *Stats) Throughput() float64 {
	if st.Wall <= 0 {
		return 0
	}
	return float64(st.Items()) / st.Wall.Seconds()
}

// String renders a small per-stage table.
func (st *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %d workers, %d items, %v wall (%.0f items/s)\n",
		st.Workers, st.Items(), st.Wall.Round(time.Millisecond), st.Throughput())
	for _, s := range st.Stages {
		fmt.Fprintf(&b, "  %-10s %12d items  %10v  %12.0f items/s\n",
			s.Name, s.Items, s.Wall.Round(time.Microsecond), s.PerSecond())
	}
	var busiest time.Duration
	for _, d := range st.ShardBusy {
		if d > busiest {
			busiest = d
		}
	}
	if len(st.ShardBusy) > 1 {
		fmt.Fprintf(&b, "  busiest shard %v of %d shards\n", busiest.Round(time.Microsecond), len(st.ShardBusy))
	}
	return b.String()
}

// Run executes the sharded pipeline: feeds[i] is drained on shard i's
// worker goroutine, each item passed to process(i, item). Process
// returns whether the item is forwarded to the tap. The tap merge runs
// on the calling goroutine concurrently with the workers, and bounded
// per-shard queues provide backpressure. A single feed is one shard:
// one worker goroutine, and a merge of one stream.
//
// Process is called from at most one goroutine per shard index, so
// per-shard state needs no locking; it must not touch other shards'
// state. Run returns once every feed is drained and the tap has seen
// every kept item.
func Run[T any](cfg Config, feeds []Feed[T], process func(shard int, item T) bool, tap *Tap[T]) *Stats {
	n := len(feeds)
	st := NewStats(n)
	st.ShardItems = make([]uint64, n)
	st.ShardBusy = make([]time.Duration, n)
	rec := cfg.Recorder
	rec.Prepare(n) // idempotent; nil-safe
	sliceLimit := uint64(rec.SliceItems())
	feedStage := cfg.feedStage()
	t0 := time.Now()

	var tapChans, freeChans []chan []T
	if tap != nil {
		tapChans = make([]chan []T, n)
		freeChans = make([]chan []T, n)
		for i := range tapChans {
			tapChans[i] = make(chan []T, tapDepth)
			// One slot beyond the tap depth so returning a drained
			// batch never blocks the merge goroutine.
			freeChans[i] = make(chan []T, tapDepth+1)
		}
	}

	// Each worker owns one telemetry bank — plain counters, no atomics;
	// the wg.Wait below orders every write before the merge read.
	workerTel := make([]telemetry.Engine, n)

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(i), "stage", "analyze"), func(context.Context) {
				tel := &workerTel[i]
				start := time.Now()
				ring := rec.ShardRing(i)
				var sl spanSlice
				sl.start = ring.Now()
				var buf []T
				nextBuf := func() []T {
					// Reuse a batch the merge side has drained; allocate
					// only while the recycling loop is still priming.
					select {
					case b := <-freeChans[i]:
						tel.BufReuses++
						return b
					default:
						tel.BufAllocs++
						return make([]T, 0, tapBatch)
					}
				}
				sendBatch := func() {
					tel.TapBatches++
					tel.TapBatchFill.Observe(uint64(len(buf)))
					if q := uint64(len(tapChans[i])); q > tel.QueueHighWater {
						tel.QueueHighWater = q
					}
					tapChans[i] <- buf
					buf = nil
				}
				// Counted in a line of the worker's own and stored once below:
				// a store per item into neighbouring words — ShardItems, or
				// locals allocated side by side — keeps one line bouncing.
				var local struct {
					items uint64
					_     [56]byte
				}
				feeds[i](func(item T) {
					local.items++
					var keep bool
					if ring == nil {
						keep = process(i, item)
					} else {
						p0 := ring.Now()
						keep = process(i, item)
						sl.procNS += ring.Now() - p0
						if sl.items++; sl.items >= sliceLimit {
							now := ring.Now()
							sl.flush(ring, feedStage, now)
							if tapChans != nil {
								ring.Sample(telemetry.CounterQueueDepth, now, uint64(len(tapChans[i])))
							}
						}
					}
					if tapChans != nil && keep {
						if buf == nil {
							buf = nextBuf()
						}
						buf = append(buf, item)
						if len(buf) >= tapBatch {
							sendBatch()
						}
					}
				})
				if ring != nil && sl.items > 0 {
					sl.flush(ring, feedStage, ring.Now())
				}
				if tapChans != nil {
					if len(buf) > 0 {
						sendBatch()
					}
					close(tapChans[i])
				}
				st.ShardItems[i] = local.items
				st.ShardBusy[i] = time.Since(start)
			})
		}(i)
	}

	var tapped uint64
	if tap != nil {
		pprof.Do(context.Background(), pprof.Labels("shard", "merge", "stage", "merge"), func(context.Context) {
			tapped = mergeTap(tapChans, freeChans, tap, rec.DriverRing(), sliceLimit)
		})
	}
	wg.Wait()
	for i := range workerTel {
		st.Engine.Merge(&workerTel[i])
	}

	wall := time.Since(t0)
	st.AddStage("analyze", st.Items(), wall)
	if tap != nil {
		st.AddStage("tap", tapped, wall)
	}
	st.Finish()
	return st
}

// spanSlice accumulates one in-progress recorder slice on a worker:
// wall window start and time spent inside process. flush closes the
// slice's spans and re-anchors it at now.
type spanSlice struct {
	start  int64
	procNS int64
	items  uint64
}

func (s *spanSlice) flush(ring *telemetry.Ring, feedStage telemetry.Stage, now int64) {
	ring.Span(telemetry.StageAnalyze, s.start, s.procNS, s.items)
	feedNS := (now - s.start) - s.procNS
	if feedNS < 0 {
		feedNS = 0
	}
	ring.Span(feedStage, s.start, feedNS, s.items)
	*s = spanSlice{start: now}
}

// mergeTap performs the streaming k-way merge of the per-shard tap
// streams. Each stream arrives batched and already ordered by
// tap.Less; a loser tree over the stream heads emits the least head in
// O(log shards) comparisons per item (the previous linear min-scan
// paid O(shards) every item), refilling a stream's batch (blocking,
// which backpressures nothing — the channel already holds data or the
// shard is ahead) as it drains. Drained batch buffers are recycled to
// their shard through free. Memory is bounded by shards × batch items.
// With a recorder, every sliceLimit emitted items close one merge span
// on the driver ring (span wall includes waiting on shard channels —
// the merge track shows occupancy, not pure CPU).
func mergeTap[T any](chans, free []chan []T, tap *Tap[T], ring *telemetry.Ring, sliceLimit uint64) uint64 {
	n := len(chans)
	heads := make([][]T, n) // current batch per shard; nil when closed
	pos := make([]int, n)
	live := 0
	for i, ch := range chans {
		if b, ok := <-ch; ok {
			heads[i] = b
			live++
		}
	}
	var emitted uint64
	sliceStart := ring.Now()
	var sliceItems uint64
	record := func() {
		if ring == nil {
			return
		}
		if sliceItems++; sliceItems >= sliceLimit {
			now := ring.Now()
			ring.Span(telemetry.StageMerge, sliceStart, now-sliceStart, sliceItems)
			sliceStart, sliceItems = now, 0
		}
	}
	defer func() {
		if ring != nil && sliceItems > 0 {
			now := ring.Now()
			ring.Span(telemetry.StageMerge, sliceStart, now-sliceStart, sliceItems)
		}
	}()

	// advance consumes the current head of stream w, recycling and
	// refilling its batch as needed. Reports whether the stream closed.
	advance := func(w int32) bool {
		pos[w]++
		if pos[w] < len(heads[w]) {
			return false
		}
		select { // hand the drained buffer back to the shard worker
		case free[w] <- heads[w][:0]:
		default:
		}
		pos[w] = 0
		if b, ok := <-chans[w]; ok {
			heads[w] = b
			return false
		}
		heads[w] = nil
		live--
		return true
	}

	// less is a strict total order over stream indices: item order
	// first, then shard index — equal items must share a shard per the
	// Tap contract, but the explicit tie-break keeps the merge
	// deterministic even for contract-violating inputs. Closed streams
	// sort last.
	less := func(a, b int32) bool {
		ca, cb := heads[a] == nil, heads[b] == nil
		if ca || cb {
			if ca != cb {
				return cb
			}
			return a < b
		}
		x, y := heads[a][pos[a]], heads[b][pos[b]]
		if tap.Less(x, y) {
			return true
		}
		if tap.Less(y, x) {
			return false
		}
		return a < b
	}

	// Each advance of the champion costs ⌈log2 n⌉ comparisons.
	tree := losertree.New(n, less)
	for live > 0 {
		w := tree.Winner()
		tap.Sink(heads[w][pos[w]])
		emitted++
		record()
		advance(w)
		tree.Fix(w)
	}
	return emitted
}
