package quicsand

import (
	"sync"
	"time"

	"quicsand/internal/detect"
	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// StreamConfig parameterizes a Streamer or a ReplayAlerts call: the
// batch Config plus the detection-side knobs.
type StreamConfig struct {
	Config

	// Detect, when non-nil, attaches one sliding-window detector bank
	// per shard; alerts drain through Checkpoint/Close (ReplayAlerts
	// returns them).
	Detect *detect.Config

	// MaxActiveSessions, when positive, is the run's per-shard source
	// budget, a hard bound on per-source state: each shard's QUIC and
	// common sessionizers evict their coldest session past this many
	// active sources (telemetry.Sessions.BudgetEvicted), and its
	// detector bank its coldest window state past this many sources
	// (telemetry.Detect.SourcesEvicted). Bounded memory trades away
	// worker-count invariance of exactly which sessions split and which
	// episodes an eviction cuts short — the differential suite runs
	// unbudgeted.
	MaxActiveSessions int
}

// Streamer is the pipeline's incremental form: the same sharded
// analysis state batch Run builds, fed one packet at a time through
// Offer, checkpointable at any moment without stopping ingest.
//
// A mid-stream Checkpoint at captured-packet N yields an Analysis
// bit-identical to a batch run over the first N packets of the same
// stream (the differential stream≡batch suite enforces this for every
// golden built-in): each shard encodes its state into a QCKP image when
// the checkpoint's op reaches it, and the shards decoded from that image
// reduce with the same commutative merges and canonical sorts the batch
// reduction uses.
//
// The shards run on the batch runs' driver: one engine.Run call, started
// by the constructor and joined by Close, drains each shard's dispatch
// queue as an engine feed, so flight recorder, live banks, pprof labels
// and stage statistics are Run's and Replay's — one shard included, the
// sequential reference. Only a shard's feed goroutine touches it (§9).
//
// Offer, Flush, Checkpoint and Close may be called from different
// goroutines (the daemon's ticker); each enqueues under one mutex.
type Streamer struct {
	// What a live streamer reads of its plan. The substrate — Internet
	// aside, which the shards' research filter holds — stays with the
	// plan: a checkpoint's Analysis prepares its own.
	cfg     StreamConfig
	workers int
	start   time.Time    // planning began: the origin of every checkpoint's wall time
	sched   engine.Stage // the "schedule" stage
	shards  []*pipelineShard

	mu     sync.Mutex
	counts []uint64          // captured packets per shard
	final  *StreamCheckpoint // Close's checkpoint; non-nil once closed

	// Per-shard op queues, which the engine drains as feeds. pending[k]
	// is the batch Offer is filling for shard k; free[k] carries drained
	// batches back from the shard's feed (§9: a batch has one owner at a
	// time — producer, queue, worker, free list).
	chans   []chan shardOp
	pending []*packetBatch
	free    []chan *packetBatch
	run     chan *engine.Stats // the engine's Run call returned
}

// shardOp is one dispatch-queue entry: a batch to analyse or, with
// reply non-nil, a checkpoint: the shard freezes itself as the ops
// before it left the shard (items: its captured-packet count there).
type shardOp struct {
	batch *packetBatch
	items uint64
	final bool // Close's checkpoint: the end of the stream
	reply chan<- frozenShard
}

// packetBatch is the Streamer's dispatch unit under the §9 slab
// contract: pkts is the value-typed slab a shard worker processes, arena
// backs the bytes the slab entries alias. Offer fills it by append, hands
// it to exactly one shard worker, and may reset and refill it once that
// worker is done.
type packetBatch struct {
	pkts  []telescope.Packet
	arena []byte
}

// newPacketBatch allocates a batch of n slab entries with an arena sized
// for n QUIC-sized datagrams.
func newPacketBatch(n int) *packetBatch {
	return &packetBatch{
		pkts:  make([]telescope.Packet, 0, n),
		arena: make([]byte, 0, n*1500),
	}
}

// append copies p into the slab and its payload bytes into the arena, so
// the caller may recycle p as soon as append returns.
func (b *packetBatch) append(p *telescope.Packet) {
	b.pkts = append(b.pkts, *p)
	if len(p.Payload) == 0 {
		return
	}
	q := &b.pkts[len(b.pkts)-1]
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

// reset empties the batch for reuse, keeping slab and arena capacity.
func (b *packetBatch) reset() {
	b.pkts = b.pkts[:0]
	b.arena = b.arena[:0]
}

const (
	// streamBatch is the dispatch granularity.
	streamBatch = 256
	// streamDepth is the per-shard queue depth in batches: the
	// producer's run-ahead window over a busy shard worker, and the
	// backlog a checkpoint op waits behind. Eight batches measured
	// the same flood throughput as 64 at half the tick latency and a
	// sixth of the pooled arena memory.
	streamDepth = 8
	// streamPool is a shard's free-list capacity. Offer allocates a
	// batch only when the free list is empty, so it covers every batch
	// that can exist at once — one filling, streamDepth queued, one
	// being processed: a feed returning a drained batch never blocks
	// and the steady state allocates nothing.
	streamPool = streamDepth + 2
)

// NewStreamer builds the incremental pipeline. The substrate
// (Internet, census, scheduled ground truth) is prepared exactly as
// Run/Replay do to wire the shards; the streamer then keeps only the
// Internet model its shards filter research scanners with, and each
// checkpoint's Analysis prepares the substrate again, so checkpoints
// carry the same joins.
func NewStreamer(cfg StreamConfig) (*Streamer, error) {
	s, _, err := newStreamer(cfg, nil, nil)
	return s, err
}

// newStreamer builds a Streamer over fresh shards or, for ResumeStreamer,
// over a checkpoint's decoded shards and their captured-packet counts. It
// also returns the scheduled generator planning built, which the
// Streamer does not keep: a daemon's packets come from its socket.
func newStreamer(cfg StreamConfig, decoded []*pipelineShard, counts []uint64) (*Streamer, *ibr.Generator, error) {
	plan, gen, shards, err := planPipeline(cfg, decoded)
	if err != nil {
		return nil, nil, err
	}
	if counts == nil {
		counts = make([]uint64, plan.workers)
	}
	s := &Streamer{cfg: plan.cfg, workers: plan.workers, start: plan.start, sched: plan.sched, shards: shards, counts: counts}
	// Each shard's dispatch queue is an engine feed; the one engine.Run
	// call that drives them runs until Close.
	s.chans = make([]chan shardOp, s.workers)
	s.pending = make([]*packetBatch, s.workers)
	s.free = make([]chan *packetBatch, s.workers)
	feeds := make([]engine.Feed, s.workers)
	for i := range feeds {
		ch := make(chan shardOp, streamDepth)
		free := make(chan *packetBatch, streamPool)
		s.chans[i], s.free[i] = ch, free
		shards[i].logFinished()
		feeds[i] = func(emit func(*telescope.Packet)) {
			for op := range ch {
				if op.reply != nil {
					op.reply <- shards[i].freeze(i, op.items, op.final) // buffered: never blocks
					continue
				}
				for j := range op.batch.pkts {
					emit(&op.batch.pkts[j])
				}
				op.batch.reset()
				free <- op.batch // never blocks: see streamPool
			}
		}
	}
	// process indexes the local shards on purpose: s.shards would be
	// re-read through *Streamer on every packet, from the cache line Offer
	// dirties with counts and the mutex (false sharing:
	// EXPERIMENTS.md PR-18).
	ecfg := engine.Config{Workers: s.workers, Recorder: s.cfg.FlightRecorder, FeedStage: telemetry.StageScatter}
	run := make(chan *engine.Stats, 1)
	s.run = run
	go func() {
		run <- engine.Run(ecfg, feeds, func(i int, p *telescope.Packet) bool { return shards[i].process(p) }, nil)
	}()
	return s, gen, nil
}

// Offer ingests one packet and reports whether the telescope captured
// it. Packets must arrive in non-decreasing time order (the capture
// and generator sources both guarantee this). The packet is only
// borrowed: it is copied (struct and payload bytes) into the shard's
// recycled dispatch batch, so callers may recycle it as
// soon as Offer returns. Captured packets are also written to cfg.Trace
// (in offer order — the canonical stream order) before dispatch, so a
// recording daemon's trace replays to the same state.
func (s *Streamer) Offer(p *telescope.Packet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final != nil {
		return false
	}
	// The capture predicate, hoisted out of Telescope.Offer: packets
	// outside the /9 contribute nothing to any analysis state (Replay
	// over a trace of captured packets reproduces Run exactly), so the
	// driver drops them without touching a shard.
	if !netmodel.InTelescope(p.Dst) {
		return false
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Capture(p)
	}
	k := ibr.ShardOf(p.Src, s.workers)
	s.counts[k]++
	b := s.pending[k]
	if b == nil {
		select {
		case b = <-s.free[k]:
		default:
			b = newPacketBatch(streamBatch)
		}
		s.pending[k] = b
	}
	b.append(p)
	if len(b.pkts) >= streamBatch {
		s.flushPending(k)
	}
	return true
}

// flushPending hands shard k's filling batch, if any, to its worker.
// Caller holds s.mu.
func (s *Streamer) flushPending(k int) {
	if b := s.pending[k]; b != nil {
		s.chans[k] <- shardOp{batch: b}
		s.pending[k] = nil
	}
}

// Flush hands every partly filled dispatch batch to its worker (no
// checkpoint, no image), so that live telemetry and the detectors see what a
// now quiet source already offered. Offer never does so itself: a flood's
// cold shard queue is mostly empty, and each packet would pay a wake-up.
func (s *Streamer) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.pending {
		s.flushPending(k)
	}
}

// StreamCheckpoint is one frozen view of the pipeline at a captured
// packet position: what Encode writes (config, worker count, position,
// each shard's part of the QCKP image), the alerts closed since the
// previous drain, the detector counters and the schedule stage. It holds
// no shard state and no substrate, so Analysis() and Encode() are both
// repeatable.
type StreamCheckpoint struct {
	cfg      StreamConfig
	position uint64
	images   []shardImage // one per shard
	detMet   []telemetry.Detect
	sched    engine.Stage  // the streamer's "schedule" stage
	wall     time.Duration // since the streamer's planning began

	// What Totals() reports, read off the shards as they froze.
	quicSessions   int
	telescopeTotal uint64

	// Only Close's checkpoint has these: the engine's statistics and the
	// recorder whose timeline Analysis() closes.
	stats *engine.Stats
	rec   *telemetry.Recorder

	// Alerts are the detector episodes closed since the previous
	// checkpoint (canonically ordered, merged across shards).
	Alerts []detect.Alert
}

// Position returns the captured-packet count the checkpoint froze at.
func (c *StreamCheckpoint) Position() uint64 { return c.position }

// Checkpoint freezes the current state without stopping ingest: each
// shard freezes itself, in parallel, when its feed reaches the op queued
// behind its pending batch, and Offer goes on meanwhile. The returned
// checkpoint is self-contained — later traffic never shows in it; after
// Close it is Close's checkpoint again, without alerts.
func (s *Streamer) Checkpoint() *StreamCheckpoint {
	s.mu.Lock()
	if s.final != nil {
		s.mu.Unlock()
		return s.Close()
	}
	c, reply := s.checkpoint(false)
	s.mu.Unlock()
	return s.collect(c, reply)
}

// checkpoint queues a checkpoint op behind each shard's pending batch
// (the queues fix the cut; caller holds s.mu) and returns the checkpoint
// the shards' replies fill.
func (s *Streamer) checkpoint(final bool) (*StreamCheckpoint, <-chan frozenShard) {
	c := &StreamCheckpoint{
		cfg:    s.cfg,
		images: make([]shardImage, s.workers),
		detMet: make([]telemetry.Detect, s.workers),
		sched:  s.sched,
	}
	reply := make(chan frozenShard, s.workers)
	for i, ch := range s.chans {
		s.flushPending(i)
		ch <- shardOp{items: s.counts[i], final: final, reply: reply}
		c.position += s.counts[i]
	}
	return c, reply
}

// collect fills c from the shards' replies.
func (s *Streamer) collect(c *StreamCheckpoint, reply <-chan frozenShard) *StreamCheckpoint {
	lists := make([][]detect.Alert, len(c.images))
	for range lists {
		f := <-reply
		c.images[f.shard], c.detMet[f.shard], lists[f.shard] = f.image, f.det, f.alerts
		c.quicSessions += f.quicSessions
		c.telescopeTotal += f.telescopeTotal
	}
	c.Alerts = detect.MergeAlerts(lists...)
	c.wall = time.Since(s.start)
	return c
}

// Close drains the shard workers, joins the engine and returns the
// final checkpoint, with every open detector episode flushed into its
// alert stream. Offer returns false after Close; Close is idempotent, a
// later call returning the final checkpoint without its alerts.
func (s *Streamer) Close() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final != nil {
		again := *s.final
		again.Alerts = nil
		return &again
	}
	c, reply := s.checkpoint(true)
	for _, ch := range s.chans {
		close(ch)
	}
	c.stats, c.rec = <-s.run, s.cfg.FlightRecorder
	s.final = s.collect(c, reply)
	return s.final
}

// Analysis reduces the checkpoint into a full Analysis — the same
// reduction batch Run performs, over the shards decoded from the image
// and the substrate prepare rebuilds from the config (ResumeStreamer's
// path) — so the checkpoint stays frozen and Analysis can be called
// again. Close's checkpoint also reports the run — the engine's stages
// and busy times in Pipeline, the recorder's timeline in Flight; each
// call adds its reduce span to that timeline, so calls must not overlap.
func (c *StreamCheckpoint) Analysis() *Analysis {
	_, shards, counts, err := decodeCheckpoint(c.Encode())
	if err != nil {
		panic("quicsand: a checkpoint's own image does not decode: " + err.Error())
	}
	plan := &pipelinePlan{cfg: c.cfg, workers: len(c.images), proto: &Analysis{Config: c.cfg.Config}, sched: c.sched}
	if _, err := plan.prepare(); err != nil {
		panic("quicsand: a streamer's own config does not prepare: " + err.Error())
	}
	// ShardItems are the captured counts, not the engine's: a resumed
	// streamer's engine saw only the packets since the image.
	pstats := &engine.Stats{Workers: plan.workers, ShardItems: counts, Wall: c.wall}
	if c.stats != nil {
		pstats.ShardBusy, pstats.Stages, pstats.Engine = c.stats.ShardBusy, c.stats.Stages, c.stats.Engine
	}
	return plan.analysis(shards, c.detMet, pstats, c.rec)
}

// Totals returns the checkpoint's two headline counts without reducing
// an Analysis: quicSessions is what len(Analysis().QUICSessions) would
// be (emitted sessions plus the still-active ones the reduction's flush
// emits), telescopeTotal is Analysis().Telescope.Total.
func (c *StreamCheckpoint) Totals() (quicSessions int, telescopeTotal uint64) {
	return c.quicSessions, c.telescopeTotal
}

// ExpectAlerts derives the analytic alert-stream prediction for cfg
// and a detector configuration without generating a packet — the
// streaming twin of Expect (internal/oracle, DESIGN.md §17).
func ExpectAlerts(cfg Config, dcfg detect.Config) (*oracle.AlertExpectation, error) {
	return oracle.ExpectAlerts(cfg.Scenario, cfg.generatorConfig(), dcfg)
}
