package quicsand

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/engine"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/oracle"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// StreamConfig parameterizes a Streamer: the batch Config plus the
// streaming-only knobs.
type StreamConfig struct {
	Config

	// Detect, when non-nil, attaches one sliding-window detector bank
	// per shard; alerts drain through Checkpoint/Close.
	Detect *detect.Config

	// MaxActiveSessions, when positive, is the per-sessionizer hard
	// memory budget: each shard's QUIC and common sessionizers evict
	// their coldest session past this many active sources
	// (telemetry.Sessions.BudgetEvicted). Bounded memory trades away
	// worker-count invariance of exactly which sessions split — the
	// differential suite runs unbudgeted.
	MaxActiveSessions int
}

// Streamer is the pipeline's incremental form: the same sharded
// analysis state batch Run builds, fed one packet at a time through
// Offer, checkpointable at any moment without stopping ingest.
//
// A mid-stream Checkpoint at captured-packet N yields an Analysis
// bit-identical to a batch run over the first N packets of the same
// stream (the differential stream≡batch suite enforces this for every
// golden built-in): shard states clone under a short barrier, and the
// clone reduces with the same commutative merges and canonical sorts
// the batch reduction uses.
//
// Offer and Checkpoint are safe to call from different goroutines
// (the daemon's checkpoint ticker); each is serialized by one mutex.
type Streamer struct {
	cfg     StreamConfig
	workers int

	proto *Analysis // substrate holder: Internet/Census/Truth/Config
	gen   *ibr.Generator
	tum   netmodel.Prefix
	rwth  netmodel.Prefix

	shards []*pipelineShard

	mu       sync.Mutex
	closed   bool
	position uint64   // captured packets offered so far
	counts   []uint64 // captured packets per shard

	// workers>1 plumbing: per-shard op channels + parked-worker barrier.
	// pending[k] is the batch Offer is filling for shard k; free[k]
	// carries drained batches back from the shard worker (§9: a batch
	// has one owner at a time — producer, queue, worker, free list).
	chans   []chan shardOp
	pending []*capture.PacketBatch
	free    []chan *capture.PacketBatch
	wg      sync.WaitGroup
}

type shardOp struct {
	batch *capture.PacketBatch
	bar   *streamBarrier
}

type streamBarrier struct {
	arrived sync.WaitGroup
	release chan struct{}
}

const (
	// streamBatch is the dispatch granularity for workers>1.
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
	// being processed: a worker returning a drained batch never blocks
	// and the steady state allocates nothing.
	streamPool = streamDepth + 2
)

// NewStreamer builds the incremental pipeline. The substrate
// (Internet, census, scheduled ground truth) is prepared exactly as
// Run/Replay do, so checkpoints carry the same joins.
func NewStreamer(cfg StreamConfig) (*Streamer, error) {
	if cfg.Detect != nil {
		if err := cfg.Detect.Validate(); err != nil {
			return nil, err
		}
	}
	workers := engine.Config{Workers: cfg.Workers}.ResolveWorkers()
	proto := &Analysis{Config: cfg.Config}
	gen, tum, rwth, err := prepare(cfg.Config, proto)
	if err != nil {
		return nil, err
	}
	proto.Truth = gen.Truth // scheduling alone fixes the ground truth
	s := &Streamer{
		cfg:     cfg,
		workers: workers,
		proto:   proto,
		gen:     gen,
		tum:     tum,
		rwth:    rwth,
		shards:  newShards(proto, tum, rwth, workers),
		counts:  make([]uint64, workers),
	}
	s.configureShards()
	s.startWorkers()
	return s, nil
}

// configureShards attaches streaming-only state to each shard.
func (s *Streamer) configureShards() {
	for i, sh := range s.shards {
		if s.cfg.Detect != nil {
			sh.det = detect.NewShard(*s.cfg.Detect)
		}
		if s.cfg.MaxActiveSessions > 0 {
			sh.quicSz.MaxActive = s.cfg.MaxActiveSessions
			sh.commonSz.MaxActive = s.cfg.MaxActiveSessions
		}
		if s.cfg.Live != nil {
			sh.live = s.cfg.Live.Shard(i)
		}
	}
}

// startWorkers launches the shard goroutines (workers>1 only;
// workers==1 processes inline in Offer, the classic sequential pass).
func (s *Streamer) startWorkers() {
	if s.workers == 1 {
		return
	}
	s.chans = make([]chan shardOp, s.workers)
	s.pending = make([]*capture.PacketBatch, s.workers)
	s.free = make([]chan *capture.PacketBatch, s.workers)
	for i := range s.chans {
		s.chans[i] = make(chan shardOp, streamDepth)
		s.free[i] = make(chan *capture.PacketBatch, streamPool)
		sh := s.shards[i]
		ch, free := s.chans[i], s.free[i]
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for op := range ch {
				if op.bar != nil {
					op.bar.arrived.Done()
					<-op.bar.release
					continue
				}
				for j := range op.batch.Pkts {
					sh.process(&op.batch.Pkts[j])
				}
				op.batch.Reset()
				free <- op.batch // never blocks: see streamPool
			}
		}()
	}
}

// Generator exposes the scheduled generator (ledger, sources, feeds)
// so drivers can pull a live stream from the same substrate.
func (s *Streamer) Generator() *ibr.Generator { return s.gen }

// Workers returns the resolved shard count.
func (s *Streamer) Workers() int { return s.workers }

// Position returns the number of captured packets offered so far.
func (s *Streamer) Position() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.position
}

// Offer ingests one packet and reports whether the telescope captured
// it. Packets must arrive in non-decreasing time order (the capture
// and generator sources both guarantee this). The packet is only
// borrowed: with workers>1 it is copied (struct and payload bytes) into
// the shard's recycled dispatch batch, so callers may recycle it as
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
	if s.workers == 1 {
		s.shards[0].process(p)
		return true
	}
	b := s.pending[k]
	if b == nil {
		select {
		case b = <-s.free[k]:
		default:
			b = capture.NewPacketBatch(streamBatch)
		}
		s.pending[k] = b
	}
	b.Append(p)
	if len(b.Pkts) >= streamBatch {
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

// barrier parks every shard worker (having first flushed pending
// batches), runs fn over the quiescent shards, then releases them.
// Caller holds s.mu.
func (s *Streamer) barrier(fn func()) {
	if s.workers == 1 || s.closed {
		fn()
		return
	}
	bar := &streamBarrier{release: make(chan struct{})}
	bar.arrived.Add(s.workers)
	for i, ch := range s.chans {
		s.flushPending(i)
		ch <- shardOp{bar: bar}
	}
	bar.arrived.Wait()
	fn()
	close(bar.release)
}

// StreamCheckpoint is one frozen view of the pipeline at a captured
// packet position: cloned shard states plus the alerts that closed
// since the previous drain. Analysis() and Encode() are both
// repeatable — each works on fresh copies of the frozen state.
type StreamCheckpoint struct {
	cfg      StreamConfig
	workers  int
	position uint64
	counts   []uint64
	tum      netmodel.Prefix
	rwth     netmodel.Prefix
	proto    *Analysis
	shards   []*pipelineShard
	detMet   []telemetry.Detect

	// ingest is the capture-side ledger (format, decode skips, salvage)
	// of the replay that produced the checkpoint; StreamReplay stamps it
	// on its final checkpoint, everything else leaves it zero.
	ingest telemetry.Ingest

	// Alerts are the detector episodes closed since the previous
	// checkpoint (canonically ordered, merged across shards).
	Alerts []detect.Alert
}

// Position returns the captured-packet count the checkpoint froze at.
func (c *StreamCheckpoint) Position() uint64 { return c.position }

// Checkpoint freezes the current state without stopping ingest: shard
// workers park at a barrier just long enough to clone their state and
// drain closed alerts, then resume. The returned checkpoint is
// self-contained — later traffic never shows in it.
func (s *Streamer) Checkpoint() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(false)
}

func (s *Streamer) checkpointLocked(final bool) *StreamCheckpoint {
	c := &StreamCheckpoint{
		cfg:      s.cfg,
		workers:  s.workers,
		position: s.position,
		counts:   append([]uint64(nil), s.counts...),
		tum:      s.tum,
		rwth:     s.rwth,
		proto:    s.proto,
	}
	var lists [][]detect.Alert
	s.barrier(func() {
		c.shards = make([]*pipelineShard, len(s.shards))
		for i, sh := range s.shards {
			if final && sh.det != nil {
				sh.det.Flush()
			}
			if s.closed {
				// No tick follows: drop the log, so the final
				// checkpoint retains only the analysis state.
				sh.sessLog, sh.sessLogN = nil, 0
			} else {
				sh.logSessions()
			}
			c.shards[i] = sh.clone()
			if sh.det != nil {
				c.detMet = append(c.detMet, sh.det.Metrics)
				if l := sh.det.Drain(); len(l) > 0 {
					lists = append(lists, l)
				}
			}
		}
	})
	c.Alerts = detect.MergeAlerts(lists...)
	return c
}

// Close drains the shard workers and returns the final checkpoint,
// with every open detector episode flushed into its alert stream.
// Offer returns false after Close; Close is idempotent.
func (s *Streamer) Close() *StreamCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.workers > 1 {
		for i, ch := range s.chans {
			s.flushPending(i)
			close(ch)
		}
		s.wg.Wait()
	}
	s.closed = true
	return s.checkpointLocked(true)
}

// Analysis reduces the checkpoint into a full Analysis — the same
// reduction batch Run performs, over re-cloned shard state so the
// checkpoint itself stays frozen and Analysis can be called again.
func (c *StreamCheckpoint) Analysis() *Analysis {
	a := &Analysis{
		Config:   c.cfg.Config,
		Internet: c.proto.Internet,
		Census:   c.proto.Census,
		Truth:    c.proto.Truth,
	}
	clones := make([]*pipelineShard, len(c.shards))
	for i, sh := range c.shards {
		clones[i] = sh.clone()
	}
	a.reduce(clones, c.tum, c.rwth)
	pstats := &engine.Stats{Workers: c.workers, ShardItems: append([]uint64(nil), c.counts...)}
	a.Telemetry = collectTelemetry(c.cfg.Config, clones, pstats)
	a.Telemetry.Ingest = c.ingest
	for i := range c.detMet {
		a.Telemetry.Detect.Merge(&c.detMet[i])
	}
	a.Pipeline = pstats
	return a
}

// Totals returns the checkpoint's two headline counts straight from the
// frozen shards, without reducing an Analysis: quicSessions is what
// len(Analysis().QUICSessions) would be (emitted sessions plus the
// still-active ones the reduction's flush emits), telescopeTotal is
// Analysis().Telescope.Total.
func (c *StreamCheckpoint) Totals() (quicSessions int, telescopeTotal uint64) {
	for _, sh := range c.shards {
		quicSessions += len(sh.sessions) + sh.quicSz.ActiveSessions()
		telescopeTotal += sh.tel.Total
	}
	return quicSessions, telescopeTotal
}

// StreamLive runs the streamer over its own scheduled generator — the
// full scenario month as one time-ordered stream — checkpointing every
// `interval` captured packets when onCheckpoint is non-nil. It is the
// streaming twin of Run.
func StreamLive(cfg StreamConfig, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*StreamCheckpoint, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	// One sequential merger yields the canonical time-ordered stream
	// whatever the analysis worker count; slab recycling is legal
	// because Offer consumes (or copies) the packet before returning.
	mergers := s.Generator().Feeds(1, true)
	var captured, next uint64
	next = interval
	mergers[0].Run(func(p *telescope.Packet) {
		if s.Offer(p) {
			captured++
			if interval > 0 && onCheckpoint != nil && captured >= next {
				onCheckpoint(s.Checkpoint())
				next += interval
			}
		}
	})
	return s.Close(), nil
}

// StreamReplay drives a stored capture through the streamer — the
// streaming twin of Replay, used by `quicsand replay -alerts`.
// interval and onCheckpoint as in StreamLive. cfg.Salvage applies to
// the source as in Replay, and the final checkpoint's Analysis carries
// the same ingest ledger Replay reports.
func StreamReplay(cfg StreamConfig, src capture.Source, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*StreamCheckpoint, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Salvage.Enabled() {
		capture.SetSalvage(src, cfg.Salvage)
	}
	var records, captured, next uint64
	next = interval
	for {
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.Close()
			return nil, fmt.Errorf("quicsand: stream replay: %w", err)
		}
		records++
		if s.Offer(p) {
			captured++
			if interval > 0 && onCheckpoint != nil && captured >= next {
				onCheckpoint(s.Checkpoint())
				next += interval
			}
		}
	}
	final := s.Close()
	final.ingest = ingestLedger(telemetry.Ingest{Records: records, DecodePath: "inline"}, src)
	return final, nil
}

// ExpectAlerts derives the analytic alert-stream prediction for cfg
// and a detector configuration without generating a packet — the
// streaming twin of Expect (internal/oracle, DESIGN.md §17).
func ExpectAlerts(cfg Config, dcfg detect.Config) (*oracle.AlertExpectation, error) {
	return oracle.ExpectAlerts(cfg.Scenario, ibr.Config{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ResearchThin: cfg.ResearchThin,
		SkipResearch: cfg.SkipResearch,
		Identity:     cfg.Identity,
	}, dcfg)
}

// sessionizerBudgetProbe reports the shards' current active-session
// counts (QUIC then common, per shard) — the lifecycle tests assert
// the memory budget holds while streaming.
func (s *Streamer) sessionizerBudgetProbe() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	s.barrier(func() {
		for _, sh := range s.shards {
			out = append(out, sh.quicSz.ActiveSessions(), sh.commonSz.ActiveSessions())
		}
	})
	return out
}
