package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"quicsand"
	"quicsand/internal/detect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// serveDaemon is the -window serve loop: the socket reader maps every
// datagram into the telescope packet model and offers it to the
// incremental pipeline; a ticker freezes checkpoints without stopping
// ingest, draining alerts and (re)writing the checkpoint image; socket
// close drains the stream and emits the final checkpoint.
//
// The received destination is rewritten to the telescope prefix base
// on UDP/443 before Offer — the daemon observes one socket, which
// stands in for the whole /9 — and the -record sink captures the
// MAPPED packet (via the streamer's trace hook, in offer order), so a
// recorded capture replays to bit-identical daemon state.
func serveDaemon(opts serveOpts, pc net.PacketConn, out, diag io.Writer) error {
	dcfg := detect.Default()
	if opts.detectConfig != "" {
		c, err := detect.LoadConfigFile(opts.detectConfig)
		if err != nil {
			return err
		}
		dcfg = c
	}
	dcfg.Window = opts.window
	if err := dcfg.Validate(); err != nil {
		return err
	}

	obs, err := startObservability(opts, diag)
	if err != nil {
		return err
	}
	defer obs.close()
	n := obs.workers

	var alertW io.Writer
	var alertFile *os.File
	switch opts.alerts {
	case "":
	case "-":
		alertW = out
	default:
		f, err := os.Create(opts.alerts)
		if err != nil {
			return fmt.Errorf("alerts: %w", err)
		}
		alertFile = f
		alertW = f
	}

	cfg := quicsand.StreamConfig{
		Config: quicsand.Config{
			Seed:           opts.seed,
			Scale:          opts.scale,
			Workers:        opts.workers,
			Live:           obs.live,
			Trace:          obs.rec,
			FlightRecorder: obs.flight,
		},
		Detect:            &dcfg,
		MaxActiveSessions: opts.memBudget,
	}
	s, err := quicsand.NewStreamer(cfg)
	if err != nil {
		if alertFile != nil {
			alertFile.Close()
		}
		return err
	}
	fmt.Fprintf(diag, "telescoped: daemon mode: window=%s workers=%d checkpoint-every=%s\n",
		opts.window, n, opts.ckptEvery)

	st := &daemonState{opts: opts, alertW: alertW, start: time.Now()}

	// Checkpoint ticker. It is joined before the final drain below, so
	// st is only ever touched by one goroutine at a time.
	stopTick := make(chan struct{})
	var twg sync.WaitGroup
	if opts.ckptEvery > 0 {
		tick := time.NewTicker(opts.ckptEvery)
		twg.Add(1)
		go func() {
			defer twg.Done()
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					st.emit(s.Checkpoint(), diag)
				case <-stopTick:
					return
				}
			}
		}()
	}

	// Read loop on this goroutine: map each datagram onto the telescope
	// model and offer it. Offer only borrows the packet — the trace sink
	// writes it synchronously, the single-worker path never retains a
	// payload, and cross-shard dispatch copies into the streamer's own
	// batches — so one Packet over the read buffer serves every datagram.
	// Those batches wait to fill: idleFlush of silence flushes them.
	buf := make([]byte, 65535)
	var p telescope.Packet
	var skipped uint64
	for {
		// Unchecked: on a closed socket the read below fails as well.
		_ = pc.SetReadDeadline(time.Now().Add(idleFlush))
		sz, addr, err := pc.ReadFrom(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.Flush()
			continue
		}
		if err != nil {
			break // socket closed: the signal handler's graceful drain
		}
		if !recordPacket(&p, addr, netmodel.TelescopePrefix.Base, 443, buf[:sz]) {
			skipped++ // non-IPv4 remote: unrepresentable in the model
			continue
		}
		s.Offer(&p)
	}
	close(stopTick)
	twg.Wait()
	obs.hb.Stop()

	final := s.Close()
	st.emit(final, diag)
	a := final.Analysis()
	if alertFile != nil {
		if err := alertFile.Close(); err != nil {
			return fmt.Errorf("alerts %s: %w", opts.alerts, err)
		}
	}

	snap := a.Telemetry
	if err := obs.finish(snap, skipped, out, fmt.Sprintf(
		"telescoped: daemon drained: %d captured packets, %d alerts, %d checkpoints\n",
		final.Position(), st.alertsTotal, len(st.snapshots))); err != nil {
		return err
	}

	config := obs.manifestConfig(pc.LocalAddr())
	config["window"] = opts.window.String()
	config["checkpoint_every"] = opts.ckptEvery.String()
	config["checkpoint"] = opts.checkpoint
	config["alerts"] = opts.alerts
	config["mem_budget"] = opts.memBudget
	config["seed"] = opts.seed
	config["scale"] = opts.scale
	m := a.Manifest("telescoped") // timing and stages are the final Analysis's own
	m.Config, m.Snapshots = config, st.snapshots
	return obs.export(a.Flight, out, m, snap)
}

// daemonState accumulates per-checkpoint artifacts: the alert stream,
// the rewritten checkpoint image, and the manifest snapshot list. It is
// only touched by the ticker goroutine, then (after the join) by the
// final drain.
type daemonState struct {
	opts        serveOpts
	alertW      io.Writer
	start       time.Time
	alertsTotal int
	snapshots   []telemetry.StreamSnapshot
}

// emit publishes one frozen checkpoint: alerts appended as JSON lines,
// the serialized image atomically swapped into place, and a snapshot
// row recorded for the manifest. Artifact write failures are logged and
// the daemon keeps serving — losing a checkpoint must not stop capture.
func (d *daemonState) emit(ck *quicsand.StreamCheckpoint, diag io.Writer) {
	if d.alertW != nil && len(ck.Alerts) > 0 {
		if err := detect.WriteAlerts(d.alertW, ck.Alerts); err != nil {
			fmt.Fprintf(diag, "telescoped: alerts: %v\n", err)
		}
	}
	d.alertsTotal += len(ck.Alerts)
	if d.opts.checkpoint != "" {
		if err := writeFileAtomic(d.opts.checkpoint, ck.Encode()); err != nil {
			fmt.Fprintf(diag, "telescoped: checkpoint %s: %v\n", d.opts.checkpoint, err)
		}
	}
	quicSessions, telescopeTotal := ck.Totals()
	d.snapshots = append(d.snapshots, telemetry.StreamSnapshot{
		ElapsedNS:      time.Since(d.start).Nanoseconds(),
		Position:       ck.Position(),
		Alerts:         len(ck.Alerts),
		AlertsTotal:    d.alertsTotal,
		QUICSessions:   quicSessions,
		TelescopeTotal: telescopeTotal,
		Checkpoint:     d.opts.checkpoint,
	})
}

// idleFlush is how long the socket stays quiet before the read loop
// flushes: short for a scrape or heartbeat, long for a flood's packet gaps.
const idleFlush = 100 * time.Millisecond

// writeFileAtomic writes data next to path and renames it into place,
// so a crashed daemon never leaves a torn checkpoint image behind.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
