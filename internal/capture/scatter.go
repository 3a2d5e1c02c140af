package capture

import (
	"context"
	"errors"
	"io"
	"runtime/pprof"
	"sync"

	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// Scatter batching: one value-typed packet slab plus one payload arena
// per in-flight batch, mirroring the engine tap's buffer recycling in
// the opposite direction.
const (
	scatterBatch = 256
	// scatterDepth is the per-shard queue depth in batches — the
	// reader's run-ahead window over the slowest shard.
	scatterDepth = 4
)

// PacketBatch is one dispatch unit of the §9 slab contract: Pkts is the
// value-typed slab a shard worker processes, arena backs the payload
// bytes the slab entries alias. The reader (Scatter) or the producer
// (the root Streamer) fills it by Append, hands it to exactly one
// shard worker, and may Reset and refill it once that worker is done.
type PacketBatch struct {
	Pkts  []telescope.Packet
	arena []byte
}

// NewPacketBatch allocates a batch of n slab entries with an arena
// sized for n QUIC-sized datagrams.
func NewPacketBatch(n int) *PacketBatch {
	return &PacketBatch{
		Pkts:  make([]telescope.Packet, 0, n),
		arena: make([]byte, 0, n*1500),
	}
}

// Append copies p into the slab and its payload bytes into the arena,
// so the caller may recycle p as soon as Append returns.
func (b *PacketBatch) Append(p *telescope.Packet) {
	b.Pkts = append(b.Pkts, *p)
	if len(p.Payload) == 0 {
		return
	}
	q := &b.Pkts[len(b.Pkts)-1]
	if cap(b.arena)-len(b.arena) >= len(p.Payload) {
		// Arena append never regrows (capacity checked), so earlier
		// packets' payload aliases stay valid.
		off := len(b.arena)
		b.arena = append(b.arena, p.Payload...)
		q.Payload = b.arena[off:len(b.arena):len(b.arena)]
	} else {
		// Oversize payloads fall back to individual allocation without
		// invalidating earlier aliases.
		q.Payload = append([]byte(nil), p.Payload...)
	}
}

// Reset empties the batch for reuse, keeping slab and arena capacity.
func (b *PacketBatch) Reset() {
	b.Pkts = b.Pkts[:0]
	b.arena = b.arena[:0]
}

// batch is one scatter unit. On the decode-after-scatter path spans
// carries the raw record spans instead and Pkts starts empty — the
// shard decodes spans into Pkts itself (arena then backs the span
// bytes, unless the source hands out stable spans).
type batch struct {
	PacketBatch
	spans [][]byte
}

// shardDecode is one shard's decode-side state: counters for the
// records it decoded and dropped, plus the open flight-recorder slice.
// Single-writer (the shard's feed goroutine); read after engine.Run
// joins, exactly like Scatter.tel.
type shardDecode struct {
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
// Packets decode into per-shard slabs: the reader goroutine copies
// each record's struct into the target shard's building batch and its
// payload bytes into that batch's arena, then hands complete batches
// over a bounded queue. No per-packet allocation occurs in the steady
// state when recycling is on.
//
// Slab ownership follows the §9 contract: a packet pointer emitted to
// the engine is valid only during the sink call. With recycle=true the
// shard worker returns each drained batch to the reader for reuse —
// legal only when nothing retains packet pointers past the sink call,
// so replays that attach a trace tap must pass recycle=false (the tap
// buffers packets across goroutines), exactly like the generator's
// slab recycling rule.
type Scatter struct {
	src     Source
	n       int
	recycle bool
	pol     SalvagePolicy

	// Decode-after-scatter (DESIGN.md §16): when the source frames
	// spans, the reader goroutine stops decoding records and only
	// routes raw spans; each shard parses its own batches (dec is
	// concurrent-safe). stable spans alias source-owned memory (an
	// OpenFile mapping of either format) and skip the arena — its
	// allocation and the copy into it — entirely.
	span     SpanSource
	dec      SpanDecoder
	stable   bool
	shardDec []shardDecode

	in    []chan *batch // reader → per-shard pump
	chans []chan *batch // pump → shard feed
	free  []chan *batch // shard feed → reader (recycling)

	once    sync.Once
	err     error
	packets uint64
	// tel accumulates the reader goroutine's batch counters; written
	// only by the reader (or feedInline) and read after engine.Run
	// returns — channel close/join orders the accesses.
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

// NewScatter prepares a scatter of src over n shards. Sources that
// frame spans (SpanSource) get the decode-after-scatter path when
// sharded; wrapped sources without the interface — notably the fault
// injector's — keep the sequential decode so injected faults retain
// their record-accurate semantics.
func NewScatter(src Source, n int, recycle bool) *Scatter {
	s := &Scatter{src: src, n: n, recycle: recycle}
	if n > 1 {
		if sp, ok := src.(SpanSource); ok {
			s.span = sp
			s.dec = sp.SpanDecoder()
			s.stable = sp.SpanStable()
			s.shardDec = make([]shardDecode, n)
		}
		s.in = make([]chan *batch, n)
		s.chans = make([]chan *batch, n)
		s.free = make([]chan *batch, n)
		for i := range s.chans {
			s.in[i] = make(chan *batch, scatterDepth)
			s.chans[i] = make(chan *batch, scatterDepth)
			// One slot of slack so returning a drained batch never
			// blocks a shard worker.
			s.free[i] = make(chan *batch, scatterDepth+1)
		}
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
// packet; queue growth is bounded by how unevenly the stored stream
// interleaves shards across the merge window (steady-state: empty,
// batches flow straight through).
func pump(in <-chan *batch, out chan<- *batch) {
	var q []*batch
	for in != nil || len(q) > 0 {
		var send chan<- *batch
		var head *batch
		if len(q) > 0 {
			send = out
			head = q[0]
		}
		select {
		case b, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			q = append(q, b)
		case send <- head:
			q[0] = nil
			q = q[1:]
		}
	}
	close(out)
}

// Feeds returns the per-shard engine feeds. The reader goroutine
// starts when the first feed runs (inside engine.Run); with one shard
// everything stays on the calling goroutine.
func (s *Scatter) Feeds() []engine.Feed[*telescope.Packet] {
	feeds := make([]engine.Feed[*telescope.Packet], s.n)
	if s.n == 1 {
		feeds[0] = s.feedInline
		return feeds
	}
	for i := range feeds {
		i := i
		feeds[i] = func(emit func(*telescope.Packet)) { s.feed(i, emit) }
	}
	return feeds
}

// SetSalvage installs the retry policy for transient source errors.
// Must be set before the feeds start running. Byte-level salvage lives
// in the sources themselves (capture.SetSalvage); this layer retries
// record-level Temporary() failures from Next, assuming the source's
// position survives a failed call — true for the format readers (they
// consume a record only once all of it has been read, so a failed read
// leaves them at the record start) and for the fault injector's record
// wrappers.
func (s *Scatter) SetSalvage(pol SalvagePolicy) { s.pol = pol }

// next reads one record, retrying transient failures per policy. Runs
// only on the reader goroutine (or feedInline's caller), so the retry
// counter needs no synchronization.
func (s *Scatter) next() (*telescope.Packet, error) {
	attempt := 0
	for {
		p, err := s.src.Next()
		if err != nil && attempt < s.pol.MaxRetries && salvage.IsTransient(err) {
			attempt++
			s.tel.TransientRetries++
			s.pol.Wait(attempt)
			continue
		}
		return p, err
	}
}

// frameNext is next's framing twin: one record framed, transient
// failures retried per policy.
func (s *Scatter) frameNext() (int, netmodel.Addr, error) {
	attempt := 0
	for {
		spanLen, src, err := s.span.FrameNext()
		if err != nil && attempt < s.pol.MaxRetries && salvage.IsTransient(err) {
			attempt++
			s.tel.TransientRetries++
			s.pol.Wait(attempt)
			continue
		}
		return spanLen, src, err
	}
}

// Err reports the first read error, if any. Valid once the engine run
// has drained every feed (engine.Run returned).
func (s *Scatter) Err() error { return s.err }

// Packets returns the number of records scattered. Valid like Err.
func (s *Scatter) Packets() uint64 { return s.packets }

// Telemetry returns the ingest counters for the completed run. Valid
// like Err. On the span path Records counts the records the shards
// decoded and DecodeDrops the spans they rejected — summed over
// shards, these equal the sequential decoder's numbers, keeping the
// Stream() projection worker-invariant (the reader-side skips are
// added by Replay via SourceSkipped, as on every path).
func (s *Scatter) Telemetry() telemetry.Ingest {
	t := s.tel
	t.Records = s.packets
	if s.span != nil {
		var decoded, drops uint64
		for i := range s.shardDec {
			decoded += s.shardDec[i].decoded
			drops += s.shardDec[i].drops
		}
		t.Records = decoded
		t.DecodeDrops += drops
		t.DecodePath = "shard"
		if !s.stable {
			t.SpanCopyBytes = t.SpanBytes // every span went window → arena
		}
	} else {
		t.DecodePath = "inline"
	}
	return t
}

// feedInline is the single-shard path: no goroutines, no copies — the
// source's packet is consumed synchronously before the next read, per
// the Source contract.
func (s *Scatter) feedInline(emit func(*telescope.Packet)) {
	for {
		p, err := s.next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			s.flushIngest()
			return
		}
		s.packets++
		s.recordIngest()
		emit(p)
	}
}

func (s *Scatter) feed(i int, emit func(*telescope.Packet)) {
	s.once.Do(func() {
		go pprof.Do(context.Background(),
			pprof.Labels("shard", "reader", "stage", "ingest"),
			func(context.Context) { s.scatter() })
	})
	for b := range s.chans[i] {
		if len(b.spans) > 0 {
			s.decodeBatch(i, b)
		}
		for j := range b.Pkts {
			emit(&b.Pkts[j])
		}
		if s.recycle {
			b.Reset()
			b.spans = b.spans[:0]
			select {
			case s.free[i] <- b:
			default:
			}
		}
	}
	if s.span != nil {
		s.flushDecode(i)
	}
}

// decodeBatch parses one batch of framed spans into its packet slab,
// on the shard's own goroutine — the decode-after-scatter half. Pkts
// has capacity for a full batch, so the appends never reallocate and
// the emitted pointers stay inside the slab. Per-slice decode spans
// land on the shard's flight-recorder ring: batch composition is a
// pure function of the stream and the shard count, so span structure
// stays deterministic for a fixed worker count.
func (s *Scatter) decodeBatch(i int, b *batch) {
	sd := &s.shardDec[i]
	var t0 int64
	if sd.ring != nil {
		if sd.items == 0 {
			sd.start = sd.ring.Now()
		}
		t0 = sd.ring.Now()
	}
	for _, sp := range b.spans {
		n := len(b.Pkts)
		b.Pkts = append(b.Pkts, telescope.Packet{})
		if s.dec.DecodeSpan(sp, &b.Pkts[n]) {
			sd.decoded++
		} else {
			b.Pkts = b.Pkts[:n]
			sd.drops++
		}
	}
	if sd.ring != nil {
		sd.busy += sd.ring.Now() - t0
		if sd.items += uint64(len(b.spans)); sd.items >= sd.slice {
			sd.ring.Span(telemetry.StageDecode, sd.start, sd.busy, sd.items)
			sd.start, sd.busy, sd.items = 0, 0, 0
		}
	}
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

// nextBatch recycles a drained batch for shard k, or allocates one.
// Stable-span sources never touch the arena, so its allocation is
// skipped for them. On the span path a fresh batch gets its span table
// at full size: a reader that outruns the shards (a mapped file always
// does) allocates batches steadily, and growing each table by append
// would cost nine reallocations per batch.
func (s *Scatter) nextBatch(k int) *batch {
	select {
	case b := <-s.free[k]:
		s.tel.BatchReuses++
		return b
	default:
		s.tel.BatchAllocs++
		b := &batch{}
		if s.stable {
			b.Pkts = make([]telescope.Packet, 0, scatterBatch)
		} else {
			b.PacketBatch = *NewPacketBatch(scatterBatch)
		}
		if s.span != nil {
			b.spans = make([][]byte, 0, scatterBatch)
		}
		return b
	}
}

// sendBatch hands a complete batch to shard k's pump.
func (s *Scatter) sendBatch(k int, b *batch) {
	s.tel.Batches++
	fill := uint64(len(b.Pkts))
	if len(b.spans) > 0 {
		fill = uint64(len(b.spans))
	}
	s.tel.BatchFill.Observe(fill)
	s.in[k] <- b
}

// scatter is the reader goroutine: it drains the source and deals
// batches to the per-shard pumps. The bounded reader→pump hop smooths
// bursts; sustained backpressure lands in the pumps' elastic queues,
// never on the reader (see pump for why that is load-bearing).
func (s *Scatter) scatter() {
	for i := range s.chans {
		go pump(s.in[i], s.chans[i])
	}
	if s.span != nil {
		s.scatterSpans()
	} else {
		s.scatterPackets()
	}
	s.flushIngest()
	for _, ch := range s.in {
		close(ch)
	}
}

// scatterPackets is the sequential-decode reader loop: the source
// decodes every record and the reader copies packets into shard slabs.
func (s *Scatter) scatterPackets() {
	building := make([]*batch, s.n)
	for {
		p, err := s.next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			break
		}
		k := ibr.ShardOf(p.Src, s.n)
		b := building[k]
		if b == nil {
			b = s.nextBatch(k)
			building[k] = b
		}
		b.Append(p)
		s.packets++
		s.recordIngest()
		if len(b.Pkts) == scatterBatch {
			s.sendBatch(k, b)
			building[k] = nil
		}
	}
	for k, b := range building {
		if b != nil && len(b.Pkts) > 0 {
			s.sendBatch(k, b)
		}
	}
}

// scatterSpans is the decode-after-scatter reader loop: the source
// only frames records; raw spans are copied from its window into the
// routed shard's arena (or alias source-owned memory when stable) and
// the shard decodes them.
func (s *Scatter) scatterSpans() {
	building := make([]*batch, s.n)
	for {
		spanLen, src, err := s.frameNext()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.err = err
			}
			break
		}
		k := ibr.ShardOf(src, s.n)
		b := building[k]
		if b == nil {
			b = s.nextBatch(k)
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
	for k, b := range building {
		if b != nil && len(b.spans) > 0 {
			s.sendBatch(k, b)
		}
	}
}
