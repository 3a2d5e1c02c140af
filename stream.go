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
// golden built-in): shard states encode into a QCKP image under a short
// barrier, and the shards decoded from that image reduce with the same
// commutative merges and canonical sorts the batch reduction uses.
//
// The shards run on the batch runs' driver: one engine.Run call, started
// by the constructor and joined by Close, drains each shard's dispatch
// queue as an engine feed, so flight recorder, live banks, pprof labels
// and stage statistics are Run's and Replay's — one shard included, the
// sequential reference.
//
// Offer and Checkpoint are safe to call from different goroutines
// (the daemon's checkpoint ticker); each is serialized by one mutex.
type Streamer struct {
	*pipelinePlan
	shards []*pipelineShard

	mu       sync.Mutex
	closed   bool
	position uint64   // captured packets offered so far
	counts   []uint64 // captured packets per shard

	// Per-shard op queues, which the engine drains as feeds. pending[k]
	// is the batch Offer is filling for shard k; free[k] carries drained
	// batches back from the shard's feed (§9: a batch has one owner at a
	// time — producer, queue, worker, free list).
	chans   []chan shardOp
	pending []*packetBatch
	free    []chan *packetBatch
	parked  chan struct{}      // one send per worker per barrier
	run     chan *engine.Stats // the engine's Run call returned
	stats   *engine.Stats      // what Close received from run
}

// shardOp is one dispatch-queue entry: a batch to analyse or, with
// release non-nil, a barrier — the worker reports on the streamer's
// parked channel and waits inside its feed until release closes.
type shardOp struct {
	batch   *packetBatch
	release chan struct{}
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
	// backlog a Checkpoint barrier waits behind. Eight batches measured
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
// Run/Replay do, so checkpoints carry the same joins.
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
	s := &Streamer{pipelinePlan: plan, shards: shards, counts: counts}
	for _, n := range counts {
		s.position += n
	}
	// Each shard's dispatch queue is an engine feed; the one engine.Run
	// call that drives them runs until Close.
	s.chans = make([]chan shardOp, s.workers)
	s.pending = make([]*packetBatch, s.workers)
	s.free = make([]chan *packetBatch, s.workers)
	parked := make(chan struct{}, s.workers)
	s.parked = parked
	feeds := make([]engine.Feed[*telescope.Packet], s.workers)
	for i := range feeds {
		ch := make(chan shardOp, streamDepth)
		free := make(chan *packetBatch, streamPool)
		s.chans[i], s.free[i] = ch, free
		feeds[i] = func(emit func(*telescope.Packet)) {
			for op := range ch {
				if op.release != nil {
					parked <- struct{}{}
					<-op.release
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
	// dirties with position, counts and the mutex (false sharing:
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
	if s.closed {
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
	s.position++
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
// barrier, no image), so that live telemetry and the detectors see what a
// now quiet source already offered. Offer never does so itself: a flood's
// cold shard queue is mostly empty, and each packet would pay a wake-up.
func (s *Streamer) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.pending {
		s.flushPending(k)
	}
}

// barrier parks every shard worker (having first flushed pending
// batches), runs fn over the quiescent shards, then releases them.
// Caller holds s.mu.
func (s *Streamer) barrier(fn func()) {
	if s.closed {
		fn()
		return
	}
	release := make(chan struct{})
	for i, ch := range s.chans {
		s.flushPending(i)
		ch <- shardOp{release: release}
	}
	for range s.chans {
		<-s.parked
	}
	fn()
	close(release)
}

// StreamCheckpoint is one frozen view of the pipeline at a captured
// packet position: each shard's part of the QCKP image, the alerts that
// closed since the previous drain and the detector counters. It holds no
// shard state; Analysis() decodes the image, so Analysis() and Encode()
// are both repeatable.
type StreamCheckpoint struct {
	*pipelinePlan
	position uint64
	images   []shardImage
	detMet   []telemetry.Detect
	wall     time.Duration // since the streamer's planning began

	// What Totals() reports, read off the shards at the barrier.
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

// Checkpoint freezes the current state without stopping ingest: shard
// workers park at a barrier just long enough to encode their state and
// drain closed alerts, then resume. The returned checkpoint is
// self-contained — later traffic never shows in it.
func (s *Streamer) Checkpoint() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(false)
}

func (s *Streamer) checkpointLocked(final bool) *StreamCheckpoint {
	c := &StreamCheckpoint{
		pipelinePlan: s.pipelinePlan,
		position:     s.position,
		images:       make([]shardImage, len(s.shards)),
		wall:         time.Since(s.start),
	}
	if final {
		c.stats, c.rec = s.stats, s.cfg.FlightRecorder
	}
	s.barrier(func() {
		for i, sh := range s.shards {
			if final {
				// Decoded shards carry no ring, so no reduction can close
				// the live shard's open slice; Close joined the ring's writer.
				sh.flightClose()
			}
			c.images[i] = sh.freeze(s.counts[i])
			c.quicSessions += len(sh.sessions) + sh.quicSz.ActiveSessions()
			c.telescopeTotal += sh.tel.Total
		}
		c.detMet, c.Alerts = drainDetectors(s.shards, final)
	})
	return c
}

// Close drains the shard workers, joins the engine and returns the
// final checkpoint, with every open detector episode flushed into its
// alert stream. Offer returns false after Close; Close is idempotent.
func (s *Streamer) Close() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		for i, ch := range s.chans {
			s.flushPending(i)
			close(ch)
		}
		s.stats = <-s.run
	}
	s.closed = true
	return s.checkpointLocked(true)
}

// Analysis reduces the checkpoint into a full Analysis — the same
// reduction batch Run performs, over the shards decoded from the image,
// the path ResumeStreamer takes, so the checkpoint itself stays frozen
// and Analysis can be called again. Close's checkpoint also reports the
// run — the engine's stages and busy times in Pipeline, the recorder's
// timeline in Flight; each call adds its reduce span to that timeline,
// so such calls must not overlap.
func (c *StreamCheckpoint) Analysis() *Analysis {
	_, shards, counts, err := decodeCheckpoint(c.Encode())
	if err != nil {
		panic("quicsand: a checkpoint's own image does not decode: " + err.Error())
	}
	// ShardItems are the captured counts, not the engine's: a resumed
	// streamer's engine saw only the packets since the image.
	pstats := &engine.Stats{Workers: c.workers, ShardItems: counts, Wall: c.wall}
	if c.stats != nil {
		pstats.ShardBusy, pstats.Stages, pstats.Engine = c.stats.ShardBusy, c.stats.Stages, c.stats.Engine
	}
	return c.analysis(shards, c.detMet, pstats, c.rec)
}

// Totals returns the checkpoint's two headline counts, read off the
// shards at the barrier, without reducing an Analysis: quicSessions is
// what len(Analysis().QUICSessions) would be (emitted sessions plus the
// still-active ones the reduction's flush emits), telescopeTotal is
// Analysis().Telescope.Total.
func (c *StreamCheckpoint) Totals() (quicSessions int, telescopeTotal uint64) {
	return c.quicSessions, c.telescopeTotal
}

// ExpectAlerts derives the analytic alert-stream prediction for cfg
// and a detector configuration without generating a packet — the
// streaming twin of Expect (internal/oracle, DESIGN.md §17).
func ExpectAlerts(cfg Config, dcfg detect.Config) (*oracle.AlertExpectation, error) {
	return oracle.ExpectAlerts(cfg.Scenario, cfg.generatorConfig(), dcfg)
}
