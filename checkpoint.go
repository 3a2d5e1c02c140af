package quicsand

import (
	"encoding/binary"
	"fmt"

	"quicsand/internal/ckpt"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/engine"
	"quicsand/internal/sessions"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// Binary streaming-checkpoint container, QCKP v3 (DESIGN.md §17). A
// checkpoint stores each shard's state as every shard holds it, the logs
// that reduce reads answers from included, plus the run parameters it
// was taken under, so a daemon restarted from the file resumes
// mid-stream and still produces the bit-identical full-run Analysis.
//
// Layout (all integers varint unless noted):
//
//	"QCKP" | version=3 | seed | scale (8B) | scenario name |
//	researchThin | skipResearch | workers | position |
//	workers × shard block | (end of input)
//
// A shard block is, in order: telescope counters, the two hourly
// histograms, the timeout sweep's gaps inside sessions, the TCP/ICMP
// detector's two counts, the QUIC and TCP/ICMP sessionizers (counters
// and open sessions), the dissector metrics (9 counters), the session
// log (one entry per session the QUIC sessionizer emitted: its answers
// and set sizes, never its sets), the attack log (one entry per attack
// the TCP/ICMP detector found) and the captured-packet count. No slot is
// a copy of another, none holds configuration (the run's parameters are
// the header's), and none holds an entry per source ever seen: the
// sources and the gaps between sessions that Figure 4 counts are
// derived from the session log when the image is reduced. Each log entry
// is written once, as its session or attack finishes. Decoders never
// panic: every malformed field fails with a byte-offset-annotated error
// (internal/ckpt, FuzzCheckpoint).
//
// Detector (sliding-window) state is deliberately NOT serialized:
// alerts are a drained stream, not reduced state, and a resumed
// daemon's detectors warm back up within one window. The checkpoint
// stores analysis state only.

// checkpointMagic brands checkpoint files; version bumps on layout
// changes.
var checkpointMagic = []byte("QCKP")

const checkpointVersion = 3

// headerMax bounds an image's header beside the scenario name: magic,
// six varints (the name's length among them), the scale and a bool.
const headerMax = 4 + 6*binary.MaxVarintLen64 + 8 + 1

const (
	maxCkptWorkers  = 1 << 12
	maxScenarioName = 1 << 10
)

// checkpointHeader is the decoded run-parameter preamble.
type checkpointHeader struct {
	seed         uint64
	scale        float64
	scenario     string
	researchThin uint32
	skipResearch bool
	workers      int
	position     uint64
}

// shardImage is one shard's block of a checkpoint image: the encoded
// state, the session and attack logs that follow it and the
// captured-packet count that ends it.
type shardImage struct {
	state   []byte
	log     []byte
	attacks []byte
	items   uint64
}

// frozenShard is one shard's reply to a checkpoint op.
type frozenShard struct {
	shard          int
	image          shardImage
	quicSessions   int // emitted plus still active: Totals()
	telescopeTotal uint64
	det            telemetry.Detect
	alerts         []detect.Alert
}

// freeze is shard i's part of a streaming checkpoint, taken on the
// shard's own feed goroutine when the checkpoint op reaches it (items:
// its captured-packet count there). Close's op (final) first closes the
// open flight slice, which no reduction of decoded shards could, and the
// detector bank's open episodes. The state is encoded into a buffer the
// image owns, sized from the previous tick's so that a steady state does
// not regrow it; the session and attack logs are shared as cap-limited
// prefixes, so a tick encodes no finished session or attack.
func (sh *pipelineShard) freeze(i int, items uint64, final bool) frozenShard {
	if final {
		sh.flightClose()
	}
	w := ckpt.NewWriter(make([]byte, 0, sh.stateLen+sh.stateLen/8+1<<10))
	sh.encodeState(w)
	state := w.Bytes()
	sh.stateLen = len(state)
	f := frozenShard{shard: i, quicSessions: int(sh.quicSz.Metrics.Emitted) + sh.quicSz.ActiveSessions(), telescopeTotal: sh.tel.Total}
	f.image = shardImage{state: state, log: prefix(&sh.sessLog), attacks: prefix(&sh.atkLog), items: items}
	f.det, f.alerts = sh.drain(final)
	return f
}

// prefix is w's bytes so far, cap-limited: no holder can write into the
// array the writer goes on appending to.
func prefix(w *ckpt.Writer) []byte {
	b := w.Bytes()
	return b[:len(b):len(b)]
}

// Encode serializes the checkpoint: the header, then each shard's frozen
// state, session log, attack log and packet count. The parts are only
// read, so Encode is repeatable and composes with Analysis().
func (c *StreamCheckpoint) Encode() []byte {
	name := scenarioName(c.cfg.Config)
	size := headerMax + len(name)
	for _, im := range c.images {
		size += len(im.state) + len(im.log) + len(im.attacks) + binary.MaxVarintLen64
	}
	w := ckpt.NewWriter(make([]byte, 0, size))
	w.Raw(checkpointMagic)
	w.U64(checkpointVersion)
	w.U64(c.cfg.Seed)
	w.F64(c.cfg.Scale)
	w.String(name)
	w.U64(uint64(c.cfg.ResearchThin))
	w.Bool(c.cfg.SkipResearch)
	w.U64(uint64(len(c.images)))
	w.U64(c.position)
	for _, im := range c.images {
		w.Raw(im.state)
		w.Raw(im.log)
		w.Raw(im.attacks)
		w.U64(im.items)
	}
	return w.Bytes()
}

// dissectCounters lists a shard block's dissector counters in wire order.
func dissectCounters(m *telemetry.Dissect) [9]*uint64 {
	return [9]*uint64{&m.Datagrams, &m.Packets, &m.ParseFailures, &m.Decrypted, &m.FrameErrors,
		&m.ClientHellos, &m.OpenerHits, &m.OpenerMisses, &m.OpenerResets}
}

// encodeState writes a shard block up to its session log, in the field
// order decodeShard reads; the block goes on with the session log, one
// entry per session the QUIC sessionizer emitted, the attack log, one
// entry per attack the TCP/ICMP detector found, and the captured-packet
// count. Changing the order bumps checkpointVersion.
func (sh *pipelineShard) encodeState(w *ckpt.Writer) {
	sh.tel.EncodeTo(w)
	sh.hourlySource.EncodeTo(w)
	sh.hourlyType.EncodeTo(w)
	sh.sweep.EncodeTo(w)
	sh.commonDet.EncodeTo(w)
	sh.quicSz.EncodeTo(w)
	sh.commonSz.EncodeTo(w)
	for _, v := range dissectCounters(&sh.dis.Metrics) {
		w.U64(*v)
	}
}

// decodeShard reads one shard block of data into a chained but unwired
// shard, its parts configured as newPipelineShard configures them: a
// checkpoint's Analysis reduces it as it is, and planPipeline wires it
// like a fresh one for ResumeStreamer; its logs stay bytes of data
// (walkLog). Unusable once the reader's error is set.
func decodeShard(r *ckpt.Reader, data []byte) (sh *pipelineShard, items uint64) {
	sh = &pipelineShard{dis: dissect.NewDissector(), commonDet: newCommonDetector()}
	sh.tel = telescope.DecodeTelescope(r)
	sh.hourlySource = telescope.DecodeHourlyCounter(r, nil)
	sh.hourlyType = telescope.DecodeHourlyCounter(r, nil)
	sh.sweep = sessions.DecodeTimeoutSweep(r)
	sh.commonDet.DecodeFrom(r)
	sh.quicSz = sessions.DecodeSessionizer(r)
	sh.commonSz = sessions.DecodeSessionizer(r)
	for _, v := range dissectCounters(&sh.dis.Metrics) {
		*v = r.U64()
	}
	if r.Err() == nil {
		// One entry per session emitted, then one per attack logged.
		sh.sessLog = walkLog(r, data, int(sh.quicSz.Metrics.Emitted), sessions.AppendFinished)
		sh.atkLog = walkLog(r, data, sh.commonDet.Logged(), sh.commonDet.AppendLogged)
	}
	items = r.U64()
	if r.Err() == nil {
		sh.chain()
	}
	return sh, items
}

// walkLog checks the n entries of the log at r's position, keeping none,
// and returns a writer over its bytes in data, cap-limited so that the
// first entry a shard appends moves the log off the caller's image.
func walkLog[T any](r *ckpt.Reader, data []byte, n int, appendNext func([]T, *ckpt.Reader, int) []T) ckpt.Writer {
	from := len(data) - r.Remaining()
	var slot [1]T
	for i := 0; i < n && r.Err() == nil; i++ {
		appendNext(slot[:0], r, 1)
	}
	to := len(data) - r.Remaining()
	return *ckpt.NewWriter(data[from:to:to])
}

// decodeCheckpoint parses a checkpoint image into its header, unwired
// shards and their captured-packet counts — for ResumeStreamer and for
// StreamCheckpoint.Analysis, which has no other copy of the state. It
// is a pure parse, so FuzzCheckpoint can drive it directly: any
// malformed input must error (offset-annotated), never panic, and never
// be silently accepted.
func decodeCheckpoint(data []byte) (hdr checkpointHeader, shards []*pipelineShard, counts []uint64, err error) {
	r := ckpt.NewReader(data)
	r.Expect(checkpointMagic, "checkpoint magic")
	if v := r.U64(); r.Err() == nil && v != checkpointVersion {
		r.Errorf("unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	hdr.seed = r.U64()
	hdr.scale = r.F64()
	hdr.scenario = r.String(maxScenarioName)
	hdr.researchThin = uint32(r.Int(1 << 31))
	hdr.skipResearch = r.Bool()
	hdr.workers = r.Int(maxCkptWorkers)
	if r.Err() == nil && hdr.workers < 1 {
		r.Errorf("checkpoint workers %d (want >= 1)", hdr.workers)
	}
	hdr.position = r.U64()

	var total uint64
	for i := 0; i < hdr.workers && r.Err() == nil; i++ {
		sh, items := decodeShard(r, data)
		shards, counts = append(shards, sh), append(counts, items)
		total += items
	}
	if r.Err() == nil && total != hdr.position {
		r.Errorf("shard packet counts sum to %d, header position %d", total, hdr.position)
	}
	if r.Err() == nil && r.Remaining() != 0 {
		r.Errorf("%d trailing bytes after checkpoint", r.Remaining())
	}
	if r.Err() != nil {
		return hdr, nil, nil, r.Err()
	}
	return hdr, shards, counts, nil
}

// ResumeStreamer rebuilds a Streamer from an encoded checkpoint. cfg
// must carry the recorded run's parameters (seed, scale, scenario,
// thinning) — the substrate is re-prepared from them, exactly as
// Replay rebuilds ground truth — and resolve to the checkpoint's
// worker count, since shard state is partitioned by it; the session
// budget is the config's (MaxActiveSessions), as the image holds no
// configuration. Sliding-window detectors resume cold (see the package
// comment above). Offering the
// original stream's records after the checkpoint's Position reproduces
// the full-run Analysis byte-for-byte.
func ResumeStreamer(cfg StreamConfig, data []byte) (*Streamer, error) {
	hdr, shards, counts, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("quicsand: resume: %w", err)
	}
	if hdr.seed != cfg.Seed || hdr.scale != cfg.Scale {
		return nil, fmt.Errorf("quicsand: resume: checkpoint is for seed=%d scale=%v, config has seed=%d scale=%v",
			hdr.seed, hdr.scale, cfg.Seed, cfg.Scale)
	}
	if name := scenarioName(cfg.Config); hdr.scenario != name {
		return nil, fmt.Errorf("quicsand: resume: checkpoint is for scenario %q, config has %q", hdr.scenario, name)
	}
	if hdr.researchThin != cfg.ResearchThin || hdr.skipResearch != cfg.SkipResearch {
		return nil, fmt.Errorf("quicsand: resume: research-scan parameters differ (checkpoint thin=%d skip=%v, config thin=%d skip=%v)",
			hdr.researchThin, hdr.skipResearch, cfg.ResearchThin, cfg.SkipResearch)
	}
	if workers := (engine.Config{Workers: cfg.Workers}).ResolveWorkers(); workers != hdr.workers {
		return nil, fmt.Errorf("quicsand: resume: checkpoint has %d shards, config resolves to %d workers", hdr.workers, workers)
	}
	cfg.Workers = hdr.workers
	s, _, err := newStreamer(cfg, shards, counts)
	return s, err
}
