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
// The engine runs packets: quicsand.Run, Replay and the Streamer drive
// it with a generated month, a stored capture, or the live traffic
// cmd/telescoped offers to a Streamer. The tap copies each kept packet's
// struct into a per-shard value batch, so no packet pointer a feed emits
// is retained past the process call, and merges the batches in the
// canonical capture order (timestamp, source address).
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

	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
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
	// tapBatch is the number of packets per tap batch. Larger batches
	// amortize channel operations; smaller ones bound the reordering
	// buffer.
	tapBatch = 256
	// tapDepth is the per-shard tap queue depth in batches. Together
	// with tapBatch it bounds how far a fast shard can run ahead of the
	// tap merge — the pipeline's backpressure window. The merge advances
	// at the least head over all shards, so the window must span the skew
	// between the shards' clocks: a shard whose packets are dense in time
	// fills a short window while its neighbours are still behind, and then
	// the shards take turns instead of running side by side (DESIGN.md §8).
	// 64 is the knee of a sweep over 16–128 recording the paper month.
	tapDepth = 64
	// tapBatches is the most batches one shard's tap can hold at once:
	// one filling, tapDepth queued and one merging. The free list holds
	// that many, so a drained batch always finds room there.
	tapBatches = tapDepth + 2
)

// Feed streams one shard's packets, in that shard's canonical order, by
// calling emit once per packet. It runs on the shard's worker goroutine
// and returns at end of stream. The packet need stay valid only during
// the emit call: the engine retains no packet pointer past it.
type Feed func(emit func(*telescope.Packet))

// Tap reassembles the per-shard streams into one stream in canonical
// capture order: (timestamp, source address), stable within a shard.
// One source address never spans shards, so packets with equal keys
// share a shard and the merged stream is independent of the worker
// count. Keys equal across shards — which that rule forbids — go in
// shard index order.
type Tap struct {
	// Sink receives every packet process kept, on the caller's
	// goroutine. The packet lives in a tap batch that is refilled once
	// the merge has passed it: it is valid only during the call, and its
	// Payload is the feed's (§9: shared read-only or GC-owned, unless the
	// feed recycles payload memory).
	Sink func(*telescope.Packet)
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

// Stats exposes per-stage throughput for one pipeline run. Run fills
// the shard fields and the "analyze" (and, when tapped, "tap") stages;
// callers append their own stages (scheduling, reduction).
type Stats struct {
	// Workers is the shard count the run used.
	Workers int
	// ShardItems counts items processed per shard.
	ShardItems []uint64
	// ShardBusy is each shard worker's busy wall time.
	ShardBusy []time.Duration
	// Stages lists stage metrics in pipeline order.
	Stages []Stage
	// Wall is the run's total wall time. Run sets it to its own; callers
	// that time more (planning, reduction) overwrite it.
	Wall time.Duration
	// Engine holds the tap/recycling telemetry merged across shards.
	// These counters are runtime-dependent (batch boundaries and buffer
	// reuse vary with scheduling), not part of the deterministic stream
	// projection.
	Engine telemetry.Engine
}

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
// worker goroutine, each packet passed to process(i, p). Process
// returns whether the packet is forwarded to the tap, which copies its
// struct. The tap merge runs on the calling goroutine concurrently with
// the workers, and bounded per-shard queues provide backpressure. A
// single feed is one shard: one worker goroutine, and a merge of one
// stream.
//
// Process is called from at most one goroutine per shard index, so
// per-shard state needs no locking; it must not touch other shards'
// state. Run returns once every feed is drained and the tap has seen
// every kept packet.
func Run(cfg Config, feeds []Feed, process func(shard int, p *telescope.Packet) bool, tap *Tap) *Stats {
	n := len(feeds)
	st := &Stats{Workers: n, ShardItems: make([]uint64, n), ShardBusy: make([]time.Duration, n)}
	rec := cfg.Recorder
	rec.Prepare(n) // idempotent; nil-safe
	sliceLimit := uint64(rec.SliceItems())
	feedStage := cfg.feedStage()
	t0 := time.Now()

	var tapChans, freeChans []chan []telescope.Packet
	if tap != nil {
		tapChans = make([]chan []telescope.Packet, n)
		freeChans = make([]chan []telescope.Packet, n)
		for i := range tapChans {
			tapChans[i] = make(chan []telescope.Packet, tapDepth)
			// Room for every batch the shard can own, so returning a
			// drained one never blocks the merge nor drops it.
			freeChans[i] = make(chan []telescope.Packet, tapBatches)
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
				var buf []telescope.Packet
				nextBuf := func() []telescope.Packet {
					// Reuse a batch the merge side has drained; allocate
					// only while the recycling loop is still priming.
					select {
					case b := <-freeChans[i]:
						tel.BufReuses++
						return b
					default:
						tel.BufAllocs++
						return make([]telescope.Packet, 0, tapBatch)
					}
				}
				sendBatch := func() {
					tel.TapBatches++
					tel.TapBatchFill.Observe(uint64(len(buf)))
					if q := uint64(len(tapChans[i])); q > tel.QueueHighWater {
						tel.QueueHighWater = q
					}
					select {
					case tapChans[i] <- buf:
					default:
						// The window is full: the shard waits for the merge.
						tel.TapStalls++
						tapChans[i] <- buf
					}
					buf = nil
				}
				// Counted in a line of the worker's own and stored once below:
				// a store per item into neighbouring words — ShardItems, or
				// locals allocated side by side — keeps one line bouncing.
				var local struct {
					items uint64
					_     [56]byte
				}
				feeds[i](func(p *telescope.Packet) {
					local.items++
					var keep bool
					if ring == nil {
						keep = process(i, p)
					} else {
						p0 := ring.Now()
						keep = process(i, p)
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
						buf = append(buf, *p)
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
			tapped = mergeTap(tapChans, freeChans, tap.Sink, rec.DriverRing(), sliceLimit)
		})
	}
	wg.Wait()
	for i := range workerTel {
		st.Engine.Merge(&workerTel[i])
	}

	st.Wall = time.Since(t0)
	st.Stages = append(st.Stages, Stage{Name: "analyze", Items: st.Items(), Wall: st.Wall})
	if tap != nil {
		st.Stages = append(st.Stages, Stage{Name: "tap", Items: tapped, Wall: st.Wall})
	}
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

// tapHead is one open stream of the tap merge: its shard index and the
// merge key of its least unmerged packet, copied out of the batch so the
// heap compares its own entries and never reads a packet.
type tapHead struct {
	ts  telescope.Timestamp
	src netmodel.Addr
	w   int
}

// before orders heads by (timestamp, source address, shard index). Equal
// keys must share a shard per the Tap contract, but the shard tie-break
// keeps the merge deterministic even for inputs that break it.
func (a *tapHead) before(b *tapHead) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.w < b.w
}

// tapHeads is the tap merge's binary min-heap of open streams. A stream
// leaves the heap when it closes, so the order never meets a closed one.
type tapHeads struct {
	open []tapHead
}

// up places e, whose slot is i, on the path from i to the root.
func (h *tapHeads) up(i int, e tapHead) {
	o := h.open
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&o[p]) {
			break
		}
		o[i], i = o[p], p
	}
	o[i] = e
}

// down restores the heap after the root's key advanced or the root was
// replaced, bottom-up: the hole walks the lesser children down to a leaf,
// one comparison a level, and the root climbs back from there — rarely
// far, since its stream has just given up its least packet.
// container/heap sifts top-down, two comparisons a level behind
// interface calls, and took 1.7× the time per merged item at eight
// shards (2-vCPU Xeon).
func (h *tapHeads) down() {
	o := h.open
	if len(o) == 0 {
		return
	}
	e, i := o[0], 0
	for c := 1; c < len(o); c = 2*i + 1 {
		if c+1 < len(o) && o[c+1].before(&o[c]) {
			c++
		}
		o[i], i = o[c], c
	}
	h.up(i, e)
}

// mergeTap performs the streaming k-way merge of the per-shard tap
// streams. Each stream arrives as value batches already in canonical
// order; a heap over the stream heads hands sink a pointer to the least
// head in O(log shards) comparisons per packet, refilling a stream's
// batch (blocking, which backpressures nothing — the channel already
// holds data or the shard is ahead) as it drains. Drained batches go
// back to their shard through free, which has room for all of them.
// Memory is bounded by shards × tapBatches × tapBatch packets. With a
// recorder, every sliceLimit emitted packets close one merge span on the
// driver ring (span wall includes waiting on shard channels — the merge
// track shows occupancy, not pure CPU).
func mergeTap(chans, free []chan []telescope.Packet, sink func(*telescope.Packet), ring *telemetry.Ring, sliceLimit uint64) uint64 {
	n := len(chans)
	batches := make([][]telescope.Packet, n)
	pos := make([]int, n)
	h := &tapHeads{open: make([]tapHead, 0, n)}
	for w, ch := range chans {
		if b, ok := <-ch; ok {
			batches[w] = b
			h.open = append(h.open, tapHead{})
			h.up(len(h.open)-1, tapHead{ts: b[0].TS, src: b[0].Src, w: w})
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

	for len(h.open) > 0 {
		top := &h.open[0]
		w := top.w
		sink(&batches[w][pos[w]])
		emitted++
		record()
		if pos[w]++; pos[w] == len(batches[w]) {
			// The sink is done with the batch: hand it back to the shard
			// worker, then wait for the stream's next one.
			free[w] <- batches[w][:0]
			pos[w] = 0
			var ok bool
			if batches[w], ok = <-chans[w]; !ok {
				last := len(h.open) - 1
				h.open[0] = h.open[last]
				h.open = h.open[:last]
				h.down()
				continue
			}
		}
		p := &batches[w][pos[w]]
		top.ts, top.src = p.TS, p.Src
		h.down()
	}
	return emitted
}
