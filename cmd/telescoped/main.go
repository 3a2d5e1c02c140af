// Command telescoped is a live miniature telescope: it binds a UDP
// socket and streams every arriving datagram through the incremental
// analysis pipeline (DESIGN.md §17) — the sharded pipeline the
// simulation and the replays feed, attached to a real socket. Each
// datagram is mapped into the telescope address model — one from remote
// port 443 as a server's reply to the socket's port, every other as a
// request to UDP/443 — and offered to one quicsand.Streamer, sharded by
// source over -workers (0 = all CPUs).
//
// -window picks what rides on the analysis. At 0, the default, there
// are no detectors and the read loop prints one classification line per
// datagram from its own QUIC dissector, in arrival order, through a
// buffer flushed whenever the socket idles for 100 ms (and when full).
// Datagrams from non-IPv4 remotes are logged but cannot be analysed; the
// drain line counts them. A positive -window attaches one sliding-window detector bank of that width per
// shard: -alerts FILE|- appends closed detector episodes as JSON lines
// and -detect-config loads detector thresholds from JSON — the two flags
// that require -window.
//
// At any window, -checkpoint FILE atomically rewrites the serialized
// pipeline state every -checkpoint-every (resumable with matching
// -seed/-scale), each checkpoint appends an analysis snapshot to the
// -manifest record, and -record FILE writes every mapped packet to a QSND
// or pcap capture that `quicsand replay` re-analyzes to the run's state.
// The ticker runs only when a tick has one of those outputs (detector
// alerts, the image, a snapshot row). The analysis state grows with the
// traffic at every window: every session and the per-source counters are
// kept until shutdown for the final analysis. -mem-budget bounds the live
// per-source state, each sessionizer's active sessions and each detector
// bank's window states, by evicting the coldest source; detector state
// also expires after one window of silence.
//
// Observability: -metrics ADDR serves Prometheus text exposition on
// /metrics (live per-shard counters plus heartbeat gauges, and the
// final merged snapshot once shutdown begins) together with the
// standard net/http/pprof handlers; -heartbeat controls the structured
// progress log (packets/s, shard skew, heap); -trace-out FILE arms the
// flight recorder (DESIGN.md §15) and writes the stage/shard timeline
// as Perfetto-loadable Chrome trace JSON at shutdown (referenced from
// the manifest); -manifest FILE writes a machine-readable run record at
// shutdown. SIGINT/SIGTERM stop the capture gracefully: the stream
// drains and emits the final checkpoint, the record sink is flushed with
// its written and dropped counts logged (and folded into the manifest),
// the final telemetry snapshot is flushed, and the process exits cleanly.
//
// Point any QUIC client at it (or run cmd/quicsand's generated trace
// through it) to watch the classification logic work on live traffic.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"quicsand/internal/clobber"
	"quicsand/internal/detect"
	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8443", "UDP address to observe")
	workers := flag.Int("workers", 0, "analysis shards; 0 = all CPUs")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics and /debug/pprof on this address")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "progress-log interval (0 disables)")
	manifest := flag.String("manifest", "", "write a machine-readable run manifest at shutdown")
	record := flag.String("record", "", "record received datagrams to this capture file (.pcap/.cap = libpcap, else QSND)")
	traceOut := flag.String("trace-out", "", "write the run's flight-recorder timeline as Chrome trace-event JSON at shutdown")
	window := flag.Duration("window", 0, "detector window; 0 = no detectors, one classification line per datagram")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "checkpoint interval when -window, -checkpoint or -manifest gives a tick an output (0 = final drain only)")
	memBudget := flag.Int("mem-budget", 0, "per-shard source budget: active sessions per sessionizer and detector window states, coldest evicted past it (0 = unbounded); finished sessions are still kept until shutdown")
	alerts := flag.String("alerts", "", "append detector alerts as JSON lines to FILE, or - for stdout (requires -window)")
	checkpoint := flag.String("checkpoint", "", "atomically (re)write the latest checkpoint image to FILE")
	detectConfig := flag.String("detect-config", "", "detector-threshold JSON, default thresholds when empty (requires -window)")
	seed := flag.Uint64("seed", 2021, "simulation-substrate seed stamped into checkpoints")
	scale := flag.Float64("scale", 0.001, "simulation-substrate scale stamped into checkpoints")
	flag.Parse()

	opts := serveOpts{
		workers:      *workers,
		metrics:      *metrics,
		heartbeat:    *heartbeat,
		manifest:     *manifest,
		record:       *record,
		traceOut:     *traceOut,
		window:       *window,
		ckptEvery:    *ckptEvery,
		memBudget:    *memBudget,
		alerts:       *alerts,
		checkpoint:   *checkpoint,
		detectConfig: *detectConfig,
		seed:         *seed,
		scale:        *scale,
	}
	if err := run(*listen, opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "telescoped:", err)
		os.Exit(1)
	}
}

// run binds the socket, installs graceful SIGINT/SIGTERM shutdown, and
// serves until the socket closes. The signal goroutine is reaped before
// run returns (no leak), so tests can call it repeatedly.
func run(listen string, opts serveOpts, out, diag io.Writer) error {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return err
	}
	defer pc.Close()
	fmt.Fprintf(diag, "telescoped: observing %s (SIGINT/SIGTERM to stop)\n", pc.LocalAddr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case sig := <-stop:
			fmt.Fprintf(diag, "telescoped: %v: draining pipeline, flushing final snapshot\n", sig)
			pc.Close()
		case <-done:
		}
	}()

	err = serve(opts, pc, out, diag)
	signal.Stop(stop)
	close(done)
	wg.Wait()
	return err
}

// serveOpts parameterizes one serve run.
type serveOpts struct {
	workers   int
	metrics   string // Prometheus+pprof listen address; "" disables
	heartbeat time.Duration
	manifest  string // run-manifest path; "" disables
	record    string // capture-file path; "" disables
	traceOut  string // flight-recorder trace path; "" disables

	// window > 0 attaches the detector bank, which alerts and
	// detectConfig configure; 0 logs every datagram instead.
	window       time.Duration
	alerts       string // alert JSON-lines path; "-" = out
	detectConfig string // detector-threshold JSON path

	ckptEvery  time.Duration // periodic checkpoints; 0 = final only
	memBudget  int           // per-shard source budget; 0 = unbounded
	checkpoint string        // checkpoint-image path; "" disables
	seed       uint64        // substrate parameters stamped into
	scale      float64       // checkpoints (resume must match them)
}

// check rejects a negative count or duration: each would otherwise pick
// another mode without a word — log mode for -window, an unbounded
// budget, no ticks, no progress log, one shard. It also rejects an
// output that names the detector config or another output.
func (o serveOpts) check() error {
	for _, f := range []struct {
		flag     string
		negative bool
		value    any
	}{
		{"-workers", o.workers < 0, o.workers},
		{"-window", o.window < 0, o.window},
		{"-mem-budget", o.memBudget < 0, o.memBudget},
		{"-checkpoint-every", o.ckptEvery < 0, o.ckptEvery},
		{"-heartbeat", o.heartbeat < 0, o.heartbeat},
	} {
		if f.negative {
			return fmt.Errorf("%s must not be negative (got %v)", f.flag, f.value)
		}
	}
	return clobber.Check([]clobber.Flag{{Name: "-detect-config", Path: o.detectConfig}}, []clobber.Flag{
		{Name: "-record", Path: o.record},
		{Name: "-checkpoint", Path: o.checkpoint},
		{Name: "-alerts", Path: o.alerts},
		{Name: "-manifest", Path: o.manifest},
		{Name: "-trace-out", Path: o.traceOut},
	})
}

// detectors returns the detector bank's configuration, nil without
// -window. The flags that configure detectors are rejected there, so a
// typo'd invocation fails loudly instead of silently logging packets.
func (o serveOpts) detectors() (*detect.Config, error) {
	if o.window <= 0 {
		switch {
		case o.alerts != "":
			return nil, fmt.Errorf("-alerts requires -window")
		case o.detectConfig != "":
			return nil, fmt.Errorf("-detect-config requires -window")
		}
		return nil, nil
	}
	dcfg := detect.Default()
	if o.detectConfig != "" {
		c, err := detect.LoadConfigFile(o.detectConfig)
		if err != nil {
			return nil, err
		}
		dcfg = c
	}
	dcfg.Window = o.window
	if err := dcfg.Validate(); err != nil {
		return nil, err
	}
	return &dcfg, nil
}

// recordPacket shapes one received datagram into the telescope store's
// packet model, overwriting *p (which then aliases data). The
// destination is the telescope prefix base: the daemon observes one
// socket, which stands in for the whole /9. Its ports come from
// udpPorts. Non-IPv4 remotes have no representation in the 32-bit
// address space and report false (counted as record drops).
func recordPacket(p *telescope.Packet, remote net.Addr, local int, data []byte) bool {
	ua, ok := remote.(*net.UDPAddr)
	if !ok {
		return false
	}
	ip4 := ua.IP.To4()
	if ip4 == nil {
		return false
	}
	*p = telescope.Packet{
		TS:      telescope.TS(time.Now()),
		Src:     netmodel.Addr(uint32(ip4[0])<<24 | uint32(ip4[1])<<16 | uint32(ip4[2])<<8 | uint32(ip4[3])),
		Dst:     netmodel.TelescopePrefix.Base,
		Proto:   telescope.ProtoUDP,
		Size:    uint16(len(data)),
		Payload: data,
	}
	p.SrcPort, p.DstPort = udpPorts(remote, local)
	return true
}

// udpPorts maps a datagram's ports into the telescope's port model. A
// datagram from remote port UDP/443 is a server's reply — backscatter —
// and keeps the socket's local port as its destination, so it
// classifies as a response; every other datagram is a request to
// UDP/443, whatever port the socket listens on. A daemon that itself
// listens on 443 sees a reply as 443 → 443, which the paper's port
// classification counts as neither direction.
func udpPorts(remote net.Addr, local int) (src, dst uint16) {
	if ua, ok := remote.(*net.UDPAddr); ok {
		src = uint16(ua.Port)
	}
	if src == telescope.PortQUIC {
		return src, uint16(local)
	}
	return src, telescope.PortQUIC
}

// describe writes one datagram's classification lines to w: one per
// QUIC packet inside it, or a single "not QUIC" line. The datagram is
// dissected in its port direction, so a server reply's Initial is not
// opened.
func describe(w io.Writer, d *dissect.Dissector, remote net.Addr, local int, data []byte) {
	p := telescope.Packet{Proto: telescope.ProtoUDP, Payload: data}
	p.SrcPort, p.DstPort = udpPorts(remote, local)
	addr := remote.String()
	r, err := d.DissectPacket(&p)
	if err != nil {
		fmt.Fprintf(w, "%-21s %5dB  not QUIC\n", addr, len(data))
		return
	}
	for _, pi := range r.Packets {
		fmt.Fprintf(w, "%-21s %5dB  %-18s", addr, len(data), pi.Type)
		if pi.Type != wire.PacketTypeOneRTT {
			fmt.Fprintf(w, " %-14s scid=%s dcid=%s", pi.Version, pi.SCID, pi.DCID)
		}
		if pi.HasClientHello {
			fmt.Fprintf(w, " ClientHello sni=%q", pi.SNI)
		} else if pi.Type == wire.PacketTypeInitial && !pi.Decrypted {
			if p.IsResponse() {
				io.WriteString(w, " (server reply: not opened)")
			} else {
				io.WriteString(w, " (undecryptable: backscatter-shaped)")
			}
		}
		io.WriteString(w, "\n")
	}
}
