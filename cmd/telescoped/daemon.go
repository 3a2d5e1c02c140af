package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"quicsand"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// serve is telescoped's one serve loop: the socket reader maps every
// datagram into the telescope packet model (recordPacket) and offers it
// to the incremental pipeline — without -window it first prints the
// datagram's classification line, so remotes the model cannot hold are
// logged too (and counted at the drain); a ticker freezes checkpoints
// without stopping ingest, draining alerts and (re)writing the
// checkpoint image; socket close drains the stream and emits the final
// checkpoint. The -record sink captures the MAPPED packet (via the
// streamer's trace hook, in offer order), so a recorded capture replays
// to bit-identical state.
func serve(opts serveOpts, pc net.PacketConn, out, diag io.Writer) error {
	if err := opts.check(); err != nil {
		return err
	}
	dcfg, err := opts.detectors()
	if err != nil {
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
		Detect:            dcfg,
		MaxActiveSessions: opts.memBudget,
	}
	s, err := quicsand.NewStreamer(cfg)
	if err != nil {
		if alertFile != nil {
			alertFile.Close()
		}
		return err
	}
	mode := "daemon mode: window=" + opts.window.String()
	var logDis *dissect.Dissector // the log's dissector; the shards keep their own
	if dcfg == nil {
		mode, logDis = "log mode:", dissect.NewDissector()
	}
	// Checkpoint ticks only when a tick has an output: the detectors'
	// alerts, the -checkpoint image or a -manifest snapshot row. Each tick
	// has every shard encode itself and extend its session log, so a plain
	// log-mode run pays neither.
	every := opts.ckptEvery
	if dcfg == nil && opts.checkpoint == "" && opts.manifest == "" {
		every = 0
	}
	fmt.Fprintf(diag, "telescoped: %s workers=%d checkpoint-every=%s\n", mode, n, every)

	st := &daemonState{opts: opts, alertW: alertW, start: time.Now()}

	// The ticker is joined before the final drain below, so st is only
	// ever touched by one goroutine at a time.
	stopTick := make(chan struct{})
	var twg sync.WaitGroup
	if every > 0 {
		tick := time.NewTicker(every)
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

	// Read loop on this goroutine: log each datagram (log mode), map it
	// onto the telescope model and offer it. Offer only borrows the
	// packet — the trace sink writes it synchronously and dispatch copies
	// into the streamer's own batches, at every -workers — so one Packet
	// over the read buffer serves every datagram. Those batches wait to fill: idleFlush of
	// silence flushes them, and the buffered log with them. Log write
	// errors are ignored: a lost log line must not stop capture.
	buf := make([]byte, 65535)
	var local int // the socket's port: a server reply's destination
	if ua, ok := pc.LocalAddr().(*net.UDPAddr); ok {
		local = ua.Port
	}
	log := bufio.NewWriter(out)
	var p telescope.Packet
	var skipped uint64
	for {
		// Unchecked: on a closed socket the read below fails as well.
		_ = pc.SetReadDeadline(time.Now().Add(idleFlush))
		sz, addr, err := pc.ReadFrom(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.Flush()
			log.Flush()
			continue
		}
		if err != nil {
			break // socket closed: the signal handler's graceful drain
		}
		if logDis != nil {
			describe(log, logDis, addr, local, buf[:sz])
		}
		if !recordPacket(&p, addr, local, buf[:sz]) {
			skipped++ // non-IPv4 remote: unrepresentable in the model
			continue
		}
		s.Offer(&p)
	}
	log.Flush()
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
	header := fmt.Sprintf("telescoped: daemon drained: %d captured packets, %d alerts, %d checkpoints",
		final.Position(), st.alertsTotal, len(st.snapshots))
	if skipped > 0 {
		header += fmt.Sprintf(", %d non-IPv4 datagrams not analysed", skipped)
	}
	if err := obs.finish(snap, skipped, out, header+"\n"); err != nil {
		return err
	}

	m := a.Manifest("telescoped") // timing and stages are the final Analysis's own
	m.Config, m.Snapshots = obs.manifestConfig(pc.LocalAddr()), st.snapshots
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

// writeFileAtomic writes data next to path, syncs it to stable storage
// and renames it into place, so neither a crashed daemon nor a crashed
// machine leaves a torn checkpoint image behind. On any failure the
// temporary file is removed and path keeps its previous image.
func writeFileAtomic(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
