package quicsand

import (
	"errors"
	"fmt"
	"io"

	"quicsand/internal/capture"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// The Streamer's test drivers: the scheduled month or a stored capture
// pushed through Offer, with a checkpoint every interval captured
// packets. telescoped offers socket datagrams instead, so no binary
// drives a Streamer this way.

// streamRun is a driven stream's final checkpoint plus the feed-side
// counters only the driver knows: a replay's capture ledger, a live
// run's merger telemetry.
type streamRun struct {
	*StreamCheckpoint
	ingest   telemetry.Ingest
	generate telemetry.Generate
}

// Analysis reduces the final checkpoint and reports the feed's counters
// on it, as Run and Replay report theirs.
func (r *streamRun) Analysis() *Analysis {
	a := r.StreamCheckpoint.Analysis()
	a.Telemetry.Ingest, a.Telemetry.Generate = r.ingest, r.generate
	return a
}

// ticked is Offer plus onCheckpoint every interval captured packets.
func ticked(s *Streamer, interval uint64, onCheckpoint func(*StreamCheckpoint)) func(*telescope.Packet) {
	captured, next := uint64(0), interval
	return func(p *telescope.Packet) {
		if !s.Offer(p) {
			return
		}
		if captured++; interval > 0 && onCheckpoint != nil && captured >= next {
			onCheckpoint(s.Checkpoint())
			next += interval
		}
	}
}

// streamLive runs a streamer over its own scheduled generator — the
// full scenario month as one time-ordered stream — checkpointing every
// interval captured packets when onCheckpoint is non-nil: the streaming
// twin of Run.
func streamLive(cfg StreamConfig, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*streamRun, error) {
	s, gen, err := newStreamer(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	// One sequential merger yields the canonical time-ordered stream
	// whatever the analysis worker count; slab recycling is legal
	// because Offer consumes (or copies) the packet before returning.
	mergers := gen.Feeds(1, true)
	mergers[0].Run(ticked(s, interval, onCheckpoint))
	return &streamRun{StreamCheckpoint: s.Close(), generate: mergers[0].Telemetry()}, nil
}

// streamReplay drives a stored capture through a streamer by a
// Source.Next loop, with interval and onCheckpoint as in streamLive: the
// reference ReplayAlerts is held to. cfg.Salvage applies to the source
// as in Replay, and the final Analysis carries the same ingest ledger
// Replay reports.
func streamReplay(cfg StreamConfig, src capture.Source, interval uint64, onCheckpoint func(*StreamCheckpoint)) (*streamRun, error) {
	s, err := NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Salvage.Enabled() {
		capture.SetSalvage(src, cfg.Salvage)
	}
	var records uint64
	offer := ticked(s, interval, onCheckpoint)
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
		offer(p)
	}
	final := s.Close()
	return &streamRun{StreamCheckpoint: final, ingest: ingestLedger(telemetry.Ingest{Records: records}, src)}, nil
}

// limitSource yields at most left records from src, then a clean io.EOF.
// It is Next-only: to replay a prefix sharded, copy it into a capture.
type limitSource struct {
	src  capture.Source
	left uint64
}

func (l *limitSource) Next() (*telescope.Packet, error) {
	if l.left == 0 {
		return nil, io.EOF
	}
	p, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	l.left--
	return p, nil
}

// skipSource reads and discards the first skip records of src, then
// passes reads through: the tail a resumed streamer is offered.
type skipSource struct {
	src  capture.Source
	skip uint64
}

func (s *skipSource) Next() (*telescope.Packet, error) {
	for s.skip > 0 {
		if _, err := s.src.Next(); err != nil {
			return nil, err
		}
		s.skip--
	}
	return s.src.Next()
}
