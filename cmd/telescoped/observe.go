package main

import (
	"fmt"
	"io"
	"net"
	"os"

	"quicsand/internal/capture"
	"quicsand/internal/engine"
	"quicsand/internal/telemetry"
)

// observability is what serve wires around its pipeline: the live
// counter bank, the optional /metrics endpoint, heartbeat and -record
// sink, and the shutdown sequence that drains them into the final
// snapshot and the manifest.
type observability struct {
	opts    serveOpts
	diag    io.Writer
	workers int
	live    *telemetry.Live
	srv     *telemetry.Server    // nil without -metrics
	hb      *telemetry.Heartbeat // nil without -heartbeat
	flight  *telemetry.Recorder  // nil without -trace-out
	// rec is the -record sink, nil when off. Capture is fire-and-forget:
	// write failures (full disk) are sticky in the sink and surface as
	// the drained Dropped() count, never by stalling the read loop.
	rec     capture.Sink
	recFile *os.File
}

// startObservability resolves the worker count and starts whatever
// opts enables. The caller defers close.
func startObservability(opts serveOpts, diag io.Writer) (*observability, error) {
	n := engine.Config{Workers: opts.workers}.ResolveWorkers()
	o := &observability{opts: opts, diag: diag, workers: n, live: telemetry.NewLive(n)}
	if opts.metrics != "" {
		s, err := telemetry.NewServer(opts.metrics, o.live)
		if err != nil {
			return nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		o.srv = s
		fmt.Fprintf(diag, "telescoped: metrics on http://%s/metrics (pprof on /debug/pprof)\n", s.Addr())
	}
	if opts.heartbeat > 0 {
		o.hb = telemetry.StartHeartbeat(o.live, o.srv, opts.heartbeat, func(format string, args ...any) {
			fmt.Fprintf(diag, "telescoped: "+format+"\n", args...)
		})
	}
	if opts.traceOut != "" {
		o.flight = telemetry.NewRecorder(telemetry.RecorderConfig{})
	}
	if opts.record != "" {
		f, err := os.Create(opts.record)
		if err != nil {
			o.close()
			return nil, fmt.Errorf("record: %w", err)
		}
		o.recFile = f
		o.rec = capture.NewSink(f, capture.FormatForPath(opts.record))
	}
	return o, nil
}

// close releases what is still running: the heartbeat, the endpoint
// (scrapable until here), and a record file an early return left open —
// after finish that last Close is a harmless second one.
func (o *observability) close() {
	o.hb.Stop()
	if o.srv != nil {
		o.srv.Close()
	}
	if o.recFile != nil {
		o.recFile.Close()
	}
}

// finish runs once the pipeline has drained: it stamps the per-shard
// packet counts and the datagrams the packet model could not represent
// (skipped, as decode drops), flushes and closes the record sink —
// folding its ledger into snap.Trace so -manifest and /metrics expose
// how much of the observed traffic the file actually holds — publishes
// snap to the endpoint, and prints header and the counter block onto out.
func (o *observability) finish(snap *telemetry.Snapshot, skipped uint64, out io.Writer, header string) error {
	snap.ShardPackets = o.live.ShardCounts()
	snap.Ingest.DecodeDrops += skipped
	if o.rec != nil {
		if err := o.rec.Flush(); err != nil {
			fmt.Fprintf(o.diag, "telescoped: record %s: %v\n", o.opts.record, err)
		}
		if err := o.recFile.Close(); err != nil {
			return fmt.Errorf("record %s: %w", o.opts.record, err)
		}
		snap.Trace.Written = o.rec.Count()
		snap.Trace.Dropped = o.rec.Dropped() + skipped
		fmt.Fprintf(o.diag, "telescoped: record drained: %d records written to %s, %d dropped\n",
			o.rec.Count(), o.opts.record, snap.Trace.Dropped)
	}
	if o.srv != nil {
		o.srv.SetFinal(snap)
	}
	fmt.Fprint(out, header)
	fmt.Fprint(out, snap.Text())
	return nil
}

// manifestConfig returns the Config keys of telescoped's manifest, the
// same set at every -window.
func (o *observability) manifestConfig(listen net.Addr) map[string]any {
	return map[string]any{
		"listen":           listen.String(),
		"workers":          o.workers,
		"record":           o.opts.record,
		"window":           o.opts.window.String(),
		"checkpoint_every": o.opts.ckptEvery.String(),
		"checkpoint":       o.opts.checkpoint,
		"alerts":           o.opts.alerts,
		"mem_budget":       o.opts.memBudget,
		"seed":             o.opts.seed,
		"scale":            o.opts.scale,
	}
}

// export writes the run's files at shutdown: the flight timeline (nil
// when off) to -trace-out, its stage table going onto out, then m — the
// caller sets Config and timing — with the snapshot to -manifest.
func (o *observability) export(tl *telemetry.Timeline, out io.Writer, m *telemetry.Manifest, snap *telemetry.Snapshot) error {
	if tl != nil {
		if err := tl.WriteFile(o.opts.traceOut); err != nil {
			return err
		}
		fmt.Fprint(out, tl.StageTable(10))
		fmt.Fprintf(o.diag, "telescoped: trace written to %s (%d spans)\n", o.opts.traceOut, tl.SpanCount())
	}
	if o.opts.manifest == "" {
		return nil
	}
	m.Command, m.TraceFile = "telescoped", o.opts.traceOut
	m.ShardPackets, m.ShardSkew, m.Telemetry = snap.ShardPackets, snap.Skew(), snap
	if err := m.WriteFile(o.opts.manifest); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	fmt.Fprintf(o.diag, "telescoped: manifest written to %s\n", o.opts.manifest)
	return nil
}
