package capture

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"

	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// Scatter batching: the reader deals records to the shards as batches of
// raw spans; each shard decodes them into its own packet slab.
const (
	scatterBatch = 256
	// scatterDepth is the depth, in batches, of each bounded hop between
	// the reader and a shard (reader → pump, pump → feed). The hops pace
	// the reader against bursts; they do not bound how far it runs ahead —
	// the pumps' elastic queues absorb that (see pump) — so nothing else
	// may be sized from it.
	scatterDepth = 4
)

// batch is one scatter unit, the only thing that crosses from the reader
// to a shard: the raw record spans the reader routed there, in stored
// order, and — for streamed sources only — the arena those spans were
// copied into (stable spans alias source-owned memory and need none). It
// holds no packet: the shard that receives it decodes the spans into its
// own slab (shardDecode.slab), so packet memory is written and read on
// one core only.
type batch struct {
	spans [][]byte
	arena []byte
	shard int // the shard it was dealt to, when the free stack is paced
}

// freeStack holds the drained batches on their way back to the reader:
// shards put, the reader takes. It is unbounded on purpose. A mapped
// reader outruns its shards by hundreds of batches (200–400 of the 1 699
// on the benchmark's flood pcap), so a free list sized to the channel
// depth overflows at once and what it cannot hold is allocated again.
// Every batch in the stack was in flight a moment ago, so the stack adds
// no memory to the run's peak — it only stops that peak from being
// reallocated. One stack serves all shards: without a slab a batch is
// fungible (with a streamed source every batch has an arena, with a
// stable one none does), and last-in-first-out hands the reader the span
// table most recently in a cache.
//
// A paced stack (Scatter.Pace) also counts each shard's batches in
// flight — sent by the reader and not yet put back — and take waits for a
// put, rather than return nil, while every shard has one.
type freeStack struct {
	mu sync.Mutex
	bs []*batch

	paced    bool
	returned sync.Cond // signalled by every put while paced
	inFlight []int
	starved  int // shards with no batch in flight
}

// pace turns on the in-flight accounting for n shards, none of which has
// a batch yet.
func (f *freeStack) pace(n int) {
	f.paced = true
	f.returned.L = &f.mu
	f.inFlight = make([]int, n)
	f.starved = n
}

// sent records that the reader deals b to shard k. It must precede the
// hand-off, so the shard's put never finds the count at zero.
func (f *freeStack) sent(k int, b *batch) {
	if !f.paced {
		return
	}
	b.shard = k
	f.mu.Lock()
	if f.inFlight[k] == 0 {
		f.starved--
	}
	f.inFlight[k]++
	f.mu.Unlock()
}

func (f *freeStack) put(b *batch) {
	f.mu.Lock()
	f.bs = append(f.bs, b)
	if f.paced {
		if f.inFlight[b.shard]--; f.inFlight[b.shard] == 0 {
			f.starved++
		}
		f.returned.Signal()
	}
	f.mu.Unlock()
}

// take returns a drained batch, or nil when none has come back yet and
// the reader may allocate: always when unpaced, and when paced only once
// some shard has no batch in flight. Waiting while every shard has one
// cannot deadlock. The tap merge blocks only on an empty tap queue, so
// the shard it waits for is not blocked on its own queue, and that shard
// holds a batch it has not finished: it finishes it and puts it back,
// which ends the wait. A shard with no batch may be the one the merge
// waits for, and its next record may lie behind records the reader must
// deal to the others first, so then the reader allocates.
func (f *freeStack) take() *batch {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.paced && len(f.bs) == 0 && f.starved == 0 {
		f.returned.Wait()
	}
	n := len(f.bs)
	if n == 0 {
		return nil
	}
	b := f.bs[n-1]
	f.bs[n-1] = nil
	f.bs = f.bs[:n-1]
	return b
}

// shardDecode is one shard's decode-side state: the packet slab it
// decodes every batch into, counters for the records it decoded and
// dropped, plus the open flight-recorder slice. Single-writer (the
// shard's feed goroutine); read after engine.Run joins, exactly like
// Scatter.tel.
type shardDecode struct {
	// slab is the shard's one scatterBatch-entry packet slab, allocated by
	// the shard itself on its first batch and overwritten by every later
	// one. Only kept when the scatter recycles; without recycling each
	// batch gets a fresh slab and the emitted packets stay valid after the
	// run.
	slab []telescope.Packet
	// touched is where the first-touch pass leaves the bytes it loaded, so
	// the loads have a use the compiler must keep.
	touched uint64

	decoded uint64
	drops   uint64

	ring  *telemetry.Ring
	slice uint64
	start int64
	busy  int64
	items uint64
}

// Scatter fans one stored packet stream out to per-shard engine feeds,
// sharded by source address with the same hash the generator's
// partitioner uses — so all packets of one source traverse one shard
// in stored order, and the sharded replay reduces to results
// bit-identical to the live run for any worker count (DESIGN.md §10).
//
// There is one feed at every shard count, one included:
// decode-after-scatter (DESIGN.md §16). The reader goroutine only frames
// records and routes the raw spans — lent when the source's spans are
// stable (an OpenFile mapping of either format), copied once into the
// routed batch's arena otherwise — and each shard decodes its own
// batches into its own packet slab. A record crosses cores once, as a
// span; its packet never does. With recycling on the steady state
// allocates nothing: no packet memory at all after each shard's first
// batch, and a span table only while the number of batches in flight is
// still growing. A source that frames no spans cannot be scattered over
// any number of shards: the scatter delivers nothing and says so
// through Err.
//
// Slab ownership follows the §9 contract: a packet pointer emitted to
// the engine is valid only during the sink call. With recycle=true the
// shard decodes every batch into the same slab and returns the drained
// batch, arena included, to the reader through the free stack — legal
// only when nothing retains a packet or its payload past the sink call.
// The engine's trace tap copies the packet struct but not its payload,
// and a streamed source's payloads live in the batch arenas, so replays
// that attach a trace tap to a streamed source pass recycle=false: each
// batch then gets a slab of its own, allocated by the shard, and neither
// is reused. A stable source's payloads alias its memory and outlive
// recycling.
type Scatter struct {
	n       int
	recycle bool

	// The framing side (nil for a source that frames no spans): the reader
	// goroutine frames through span, each shard parses its own batches
	// with dec (concurrent-safe) into its shardDec slab. stable spans alias
	// source-owned memory and skip the arena — its allocation and the copy
	// into it — entirely.
	span     SpanSource
	dec      SpanDecoder
	stable   bool
	shardDec []shardDecode

	in    []chan *batch // reader → per-shard pump
	chans []chan *batch // pump → shard feed
	free  freeStack     // shard feeds → reader (recycling)

	once    sync.Once
	err     error
	packets uint64
	// tel accumulates the reader goroutine's batch counters; written
	// only by the reader and read after engine.Run returns — channel
	// close/join orders the accesses.
	tel telemetry.Ingest

	// Flight-recorder state (DESIGN.md §15), owned by the same goroutine
	// as tel: every sliceItems records the reader closes one ingest span
	// on its ring and samples the cumulative record count, the slice's
	// mean batch fill, and the recycle-hit total. nil ring disables all
	// of it at one branch per record.
	ring       *telemetry.Ring
	sliceItems uint64
	ingStart   int64
	ingItems   uint64
	lastFillN  uint64
	lastFillS  uint64
}

// Pace makes the reader of a recycling scatter wait for a drained batch,
// rather than allocate one, while every shard has a batch in flight (see
// freeStack.take). Call it before the feeds run when a trace tap merges
// the shards' output: the tap holds every shard to the merge's time
// frontier, so a reader left free runs ahead of them and allocates a
// batch for most of the ones it deals. Untapped shards drain as fast as
// they can, and a reader running ahead keeps them fed, so an untapped
// scatter is not paced. Without recycling no batch comes back, and Pace
// does nothing.
func (s *Scatter) Pace() {
	if s.recycle && s.span != nil {
		s.free.pace(s.n)
	}
}

// SetRecorder attaches the run's flight recorder; the scatter records
// onto the recorder's reader ring. Call after rec.Prepare and before
// the feeds start running.
func (s *Scatter) SetRecorder(rec *telemetry.Recorder) {
	s.ring = rec.ReaderRing()
	s.sliceItems = uint64(rec.SliceItems())
	s.ingStart = s.ring.Now()
	for i := range s.shardDec {
		s.shardDec[i].ring = rec.ShardRing(i)
		s.shardDec[i].slice = s.sliceItems
	}
}

// recordIngest accounts one scattered record on the reader ring,
// flushing the open ingest slice every sliceItems records.
func (s *Scatter) recordIngest() {
	if s.ring == nil {
		return
	}
	if s.ingItems++; s.ingItems >= s.sliceItems {
		now := s.ring.Now()
		s.ring.Span(telemetry.StageIngest, s.ingStart, now-s.ingStart, s.ingItems)
		s.ring.Sample(telemetry.CounterRecords, now, s.packets)
		s.ring.Sample(telemetry.CounterRecycleHits, now, s.tel.BatchReuses)
		if n := s.tel.BatchFill.Count - s.lastFillN; n > 0 {
			s.ring.Sample(telemetry.CounterBatchFill, now, (s.tel.BatchFill.Sum-s.lastFillS)/n)
			s.lastFillN, s.lastFillS = s.tel.BatchFill.Count, s.tel.BatchFill.Sum
		}
		s.ingStart, s.ingItems = now, 0
	}
}

// flushIngest closes any partial ingest slice at end of stream.
func (s *Scatter) flushIngest() {
	if s.ring == nil || s.ingItems == 0 {
		return
	}
	now := s.ring.Now()
	s.ring.Span(telemetry.StageIngest, s.ingStart, now-s.ingStart, s.ingItems)
	s.ring.Sample(telemetry.CounterRecords, now, s.packets)
	s.ingItems = 0
}

// NewScatter prepares a scatter of src over n shards. src must frame
// spans; every format reader does, and a Next-only wrapper yields the Err
// described on Scatter instead of packets.
func NewScatter(src Source, n int, recycle bool) *Scatter {
	s := &Scatter{n: n, recycle: recycle}
	sp, ok := src.(SpanSource)
	if !ok {
		s.err = fmt.Errorf("capture: %T frames no spans, so it cannot be scattered over shards: copy it into a capture first", src)
		return s
	}
	s.span = sp
	s.stable = sp.SpanStable()
	s.shardDec = make([]shardDecode, n)
	s.in = make([]chan *batch, n)
	s.chans = make([]chan *batch, n)
	for i := range s.chans {
		s.in[i] = make(chan *batch, scatterDepth)
		s.chans[i] = make(chan *batch, scatterDepth)
	}
	return s
}

// pump forwards batches from the reader to one shard's feed through an
// elastic queue. A single reader deals to all shards, so a bounded
// queue would deadlock under a trace tap: the tap's k-way merge
// advances at the global time frontier and backpressures every shard
// to it, while the reader may need to push many consecutive packets to
// one stalled shard before the frontier shard's next packet appears in
// the file. The pump always accepts, so the reader always reaches that
// packet; under a tap queue growth is bounded by how unevenly the stored
// stream interleaves shards across the merge window, and a paced reader
// (Pace) deals from drained batches while every shard holds one, so the
// batches in flight grow only while some shard has none. Without a tap the
// queue is not empty either: a reader that only frames (a mapped file)
// is several times faster than a shard that dissects and sessionises, so
// it runs hundreds of batches ahead and they wait here — measured 200–400
// of the 1 699 on the benchmark's flood pcap. That is a span table per
// queued batch, cheap to hold; it is also why drained batches go back
// through an unbounded free stack and not a list sized to the channel
// depth.
func pump(in <-chan *batch, out chan<- *batch) {
	var q batchRing
	for in != nil || q.n > 0 {
		var send chan<- *batch
		var head *batch
		if q.n > 0 {
			send = out
			head = q.buf[q.head]
		}
		select {
		case b, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			q.push(b)
		case send <- head:
			q.pop()
		}
	}
	close(out)
}

// batchRing is pump's queue: a ring that reuses its array and grows it
// only when full, so a backlog that stays bounded stops allocating.
type batchRing struct {
	buf     []*batch
	head, n int
}

func (r *batchRing) push(b *batch) {
	if r.n == len(r.buf) {
		grown := make([]*batch, max(16, 2*len(r.buf)))
		copy(grown[copy(grown, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = b
	r.n++
}

func (r *batchRing) pop() {
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// Feeds returns the per-shard engine feeds. The reader goroutine
// starts when the first feed runs (inside engine.Run).
func (s *Scatter) Feeds() []engine.Feed {
	feeds := make([]engine.Feed, s.n)
	for i := range feeds {
		i := i
		feeds[i] = func(emit func(*telescope.Packet)) { s.feed(i, emit) }
	}
	return feeds
}

// Err reports the first read error, if any — or, from construction on,
// that the source cannot be sharded. Valid once the engine run has
// drained every feed (engine.Run returned). Transient errors arrive here
// only after the source's window has spent its retry budget on them
// (salvage.Window is the one place that retries).
func (s *Scatter) Err() error { return s.err }

// Packets returns the number of records scattered. Valid like Err.
func (s *Scatter) Packets() uint64 { return s.packets }

// Telemetry returns the ingest counters for the completed run. Valid
// like Err. Records counts the records the shards decoded and
// DecodeDrops the spans they rejected — summed over shards, these are
// the same at every shard count, keeping the Stream() projection
// worker-invariant (the reader-side skips and the salvage ledger,
// transient retries included, are the source's to report:
// SourceSkipped, SourceSalvage).
func (s *Scatter) Telemetry() telemetry.Ingest {
	t := s.tel
	for i := range s.shardDec {
		t.Records += s.shardDec[i].decoded
		t.DecodeDrops += s.shardDec[i].drops
	}
	if !s.stable {
		t.SpanCopyBytes = t.SpanBytes // every span went window → arena
	}
	return t
}

func (s *Scatter) feed(i int, emit func(*telescope.Packet)) {
	if s.span == nil {
		return // nothing to shard: NewScatter set Err
	}
	s.once.Do(func() {
		go pprof.Do(context.Background(),
			pprof.Labels("shard", "reader", "stage", "ingest"),
			func(context.Context) { s.scatter() })
	})
	for b := range s.chans[i] {
		pkts := s.decodeBatch(i, b)
		for j := range pkts {
			emit(&pkts[j])
		}
		if s.recycle {
			b.spans = b.spans[:0]
			b.arena = b.arena[:0]
			s.free.put(b)
		}
	}
	s.flushDecode(i)
}

// decodeBatch parses one batch of framed spans into the shard's packet
// slab, on the shard's own goroutine — the decode-after-scatter half —
// and returns the decoded packets, valid until the shard's next
// decodeBatch when recycling and for good otherwise (their payloads as
// long as the batch arena, which a recycling scatter reuses). The slab
// has capacity for a full batch, so the appends never reallocate and
// the emitted pointers stay inside it. Per-slice decode spans land on the
// shard's flight-recorder ring: batch composition is a pure function of
// the stream and the shard count, so span structure stays deterministic
// for a fixed worker count.
func (s *Scatter) decodeBatch(i int, b *batch) []telescope.Packet {
	sd := &s.shardDec[i]
	var t0 int64
	if sd.ring != nil {
		if sd.items == 0 {
			sd.start = sd.ring.Now()
		}
		t0 = sd.ring.Now()
	}
	if s.recycle && sd.slab == nil {
		sd.slab = make([]telescope.Packet, 0, scatterBatch)
	}
	pkts := sd.slab
	if pkts == nil {
		pkts = make([]telescope.Packet, 0, len(b.spans))
	}
	// First touch, in parallel. The reader framed these records on another
	// core and read only their first line, so the lines the decode and the
	// dissector are about to read — the record header, the line with the
	// transport and QUIC long header, the pcap trailer at the far end of an
	// ≈ 800-byte flood record — are in no cache of this core, and the
	// decode loop below would take them one dependent stall per record.
	// This loop does nothing but load them: its iterations are independent,
	// so the core keeps as many misses in flight as it has fill buffers
	// (about ten) instead of one. Plain loads, no assembly: Go has no
	// prefetch intrinsic, and a load the out-of-order window can run ahead
	// of is what a prefetch would be.
	var touched uint64
	for _, sp := range b.spans {
		touched += uint64(sp[0]) + uint64(sp[len(sp)-1])
		if len(sp) > 64 {
			touched += uint64(sp[64])
		}
	}
	sd.touched += touched
	for _, sp := range b.spans {
		n := len(pkts)
		pkts = append(pkts, telescope.Packet{})
		if !s.dec.DecodeSpan(sp, &pkts[n]) {
			pkts = pkts[:n]
		}
	}
	sd.decoded += uint64(len(pkts))
	sd.drops += uint64(len(b.spans) - len(pkts))
	if sd.ring != nil {
		sd.busy += sd.ring.Now() - t0
		if sd.items += uint64(len(b.spans)); sd.items >= sd.slice {
			sd.ring.Span(telemetry.StageDecode, sd.start, sd.busy, sd.items)
			sd.start, sd.busy, sd.items = 0, 0, 0
		}
	}
	return pkts
}

// flushDecode closes the shard's partial decode slice at end of feed.
func (s *Scatter) flushDecode(i int) {
	sd := &s.shardDec[i]
	if sd.ring == nil || sd.items == 0 {
		return
	}
	sd.ring.Span(telemetry.StageDecode, sd.start, sd.busy, sd.items)
	sd.busy, sd.items = 0, 0
}

// nextBatch takes a drained batch off the free stack, or allocates one
// when none has come back yet — which happens only while the number of
// batches in flight is still growing, so BatchAllocs is bounded by that
// peak (paced, the take waits for one while every shard has a batch). A
// fresh batch is a span table, at full size (growing it by append would
// cost nine reallocations), plus an arena for a streamed source; stable
// spans need none. No packet memory is allocated here, on the
// reader's core: the slab is the decoding shard's.
func (s *Scatter) nextBatch() *batch {
	if b := s.free.take(); b != nil {
		s.tel.BatchReuses++
		return b
	}
	s.tel.BatchAllocs++
	b := &batch{spans: make([][]byte, 0, scatterBatch)}
	if !s.stable {
		b.arena = make([]byte, 0, scatterBatch*1500)
	}
	return b
}

// sendBatch hands a complete batch to shard k's pump.
func (s *Scatter) sendBatch(k int, b *batch) {
	s.tel.Batches++
	s.tel.BatchFill.Observe(uint64(len(b.spans)))
	s.free.sent(k, b)
	s.in[k] <- b
}

// scatter is the reader goroutine: it frames the source's records and
// deals their raw spans — copied from the source's window into the
// routed batch's arena, or aliasing source-owned memory when stable — to
// the per-shard pumps in batches; the shards decode them. It allocates
// no packet memory, and no batch once enough are in flight. The bounded
// reader→pump hop smooths bursts; sustained backpressure lands in the
// pumps' elastic queues, never on the reader (see pump for why that is
// load-bearing).
func (s *Scatter) scatter() {
	for i := range s.chans {
		go pump(s.in[i], s.chans[i])
	}
	building := make([]*batch, s.n)
	spanLen, src, err := s.span.FrameNext()
	s.dec = s.span.SpanDecoder() // after a frame: a deferred pcap header is parsed
	for ; err == nil; spanLen, src, err = s.span.FrameNext() {
		k := ibr.ShardOf(src, s.n)
		b := building[k]
		if b == nil {
			b = s.nextBatch()
			building[k] = b
		}
		var span []byte
		switch {
		case s.stable:
			span = s.span.TakeSpan(nil)
		case cap(b.arena)-len(b.arena) >= spanLen:
			// Capacity is checked before extending, preserving the
			// never-regrow rule for earlier spans' aliases.
			off := len(b.arena)
			b.arena = b.arena[:off+spanLen]
			span = s.span.TakeSpan(b.arena[off : off+spanLen : off+spanLen])
		default:
			span = s.span.TakeSpan(make([]byte, spanLen))
		}
		b.spans = append(b.spans, span)
		s.tel.SpanBytes += uint64(spanLen)
		s.packets++
		s.recordIngest()
		if len(b.spans) == scatterBatch {
			s.sendBatch(k, b)
			building[k] = nil
		}
	}
	if !errors.Is(err, io.EOF) {
		s.err = err
	}
	for k, b := range building {
		if b != nil && len(b.spans) > 0 {
			s.sendBatch(k, b)
		}
	}
	s.flushIngest()
	for _, ch := range s.in {
		close(ch)
	}
}
