package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/dissect"
	"quicsand/internal/handshake"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// lockedBuffer serializes writes (shards print concurrently).
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// sendProbes fires a genuine QUIC Initial plus a junk payload at addr.
func sendProbes(t *testing.T, addr string) {
	t.Helper()
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "live.test"})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(initial); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("definitely not quic")); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls out until every needle appears or the deadline passes.
func waitFor(t *testing.T, out *lockedBuffer, needles ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := out.String()
		ok := true
		for _, n := range needles {
			if !strings.Contains(s, n) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wanted %q in output, have:\n%s", needles, s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// logMode is serve without -window at the command's default substrate
// (seed and scale as the flags default them): no detectors, one
// classification line per datagram.
func logMode(workers int) serveOpts {
	return serveOpts{workers: workers, seed: 2021, scale: 0.001}
}

// TestServeRejectsNegativeFlags pins that a negative count or duration
// is an error naming its flag, returned before the socket is read —
// never a silent switch to log mode, an unbounded budget, no ticks, no
// progress log or one shard.
func TestServeRejectsNegativeFlags(t *testing.T) {
	for _, tc := range []struct {
		flag string
		set  func(*serveOpts)
	}{
		{"-window", func(o *serveOpts) { o.window = -time.Minute }},
		{"-mem-budget", func(o *serveOpts) { o.memBudget = -1 }},
		{"-checkpoint-every", func(o *serveOpts) { o.ckptEvery = -time.Second }},
		{"-heartbeat", func(o *serveOpts) { o.heartbeat = -time.Second }},
		{"-workers", func(o *serveOpts) { o.workers = -2 }},
	} {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		opts := logMode(2)
		tc.set(&opts)
		out := &lockedBuffer{}
		err = serve(opts, pc, out, io.Discard)
		pc.Close()
		if err == nil || !strings.Contains(err.Error(), tc.flag+" must not be negative") {
			t.Errorf("%s: want an error naming the flag, got %v", tc.flag, err)
		}
		if out.String() != "" {
			t.Errorf("%s: serve ran before rejecting the flag:\n%s", tc.flag, out.String())
		}
	}
}

// TestServeClassifiesDatagrams drives the live pipeline end to end: a
// genuine QUIC Initial and a junk payload arrive on the socket, the read
// loop's log classifies both, and serve returns once the socket closes —
// flushing the drain summary and the shards' telemetry counter block. A
// checkpoint interval with nothing to write starts no ticker: the drain's
// is the run's only checkpoint.
func TestServeClassifiesDatagrams(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	out := &lockedBuffer{}
	done := make(chan error, 1)
	opts := logMode(2)
	opts.ckptEvery = 5 * time.Millisecond
	go func() { done <- serve(opts, pc, out, io.Discard) }()

	sendProbes(t, pc.LocalAddr().String())
	waitFor(t, out, "Initial", "not QUIC")
	time.Sleep(50 * time.Millisecond) // ten intervals

	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ClientHello sni=\"live.test\"") {
		t.Errorf("ClientHello SNI missing:\n%s", s)
	}
	if !strings.Contains(s, "workers") {
		t.Errorf("pipeline stats missing:\n%s", s)
	}
	// The final snapshot's dissect section must reflect both probes.
	if !strings.Contains(s, "datagrams") || !strings.Contains(s, "parse failures") {
		t.Errorf("telemetry counter block missing:\n%s", s)
	}
	if want := "daemon drained: 2 captured packets, 0 alerts, 1 checkpoints\n"; !strings.Contains(s, want) {
		t.Errorf("drain summary is not %q:\n%s", want, s)
	}
}

// TestServeCountsNonIPv4 listens on IPv6 loopback: the 32-bit packet
// model cannot hold the remotes, so both probes are logged but not
// analysed — and the drain line and the manifest's decode drops say so
// without -record.
func TestServeCountsNonIPv4(t *testing.T) {
	pc, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	out := &lockedBuffer{}
	done := make(chan error, 1)
	opts := logMode(2)
	opts.manifest = manifest
	go func() { done <- serve(opts, pc, out, io.Discard) }()

	sendProbes(t, pc.LocalAddr().String())
	waitFor(t, out, "Initial", "not QUIC")

	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := "daemon drained: 0 captured packets, 0 alerts, 1 checkpoints, 2 non-IPv4 datagrams not analysed\n"; !strings.Contains(out.String(), want) {
		t.Errorf("drain summary is not %q:\n%s", want, out.String())
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"decode_drops": 2`) {
		t.Errorf("manifest misses the skipped datagrams:\n%s", data)
	}
}

// TestRunSIGTERMGracefulShutdown asserts the graceful-shutdown path:
// run installs a SIGTERM handler, a self-delivered SIGTERM closes the
// socket, the pipeline drains, and run returns nil with the final
// telemetry snapshot (and manifest) flushed.
func TestRunSIGTERMGracefulShutdown(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	out := &lockedBuffer{}
	diag := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		opts := logMode(2)
		opts.manifest = manifest
		done <- run("127.0.0.1:0", opts, out, diag)
	}()

	// The bound port is dynamic; recover it from the startup line.
	waitFor(t, diag, "telescoped: observing ")
	line := diag.String()
	addr := line[strings.Index(line, "observing ")+len("observing "):]
	addr = strings.Fields(addr)[0]

	sendProbes(t, addr)
	waitFor(t, out, "Initial", "not QUIC")

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5s of SIGTERM")
	}

	if s := diag.String(); !strings.Contains(s, "terminated: draining pipeline") {
		t.Errorf("SIGTERM not acknowledged in diagnostics:\n%s", s)
	}
	if s := out.String(); !strings.Contains(s, "workers") || !strings.Contains(s, "datagrams") {
		t.Errorf("final snapshot missing after SIGTERM:\n%s", s)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	for _, want := range []string{`"command": "telescoped"`, `"telemetry"`, `"shard_packets"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %s:\n%s", want, data)
		}
	}
}

// TestRecordPacketDirection maps datagrams by their remote port: a reply
// from UDP/443 is backscatter and lands as a response to the socket's
// own port, anything else as a request to UDP/443, and a daemon that
// itself listens on 443 sees a reply as 443 → 443. The log dissects
// each datagram in that direction, so a reply's Initial is never opened.
func TestRecordPacketDirection(t *testing.T) {
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "live.test"})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseLongHeader(initial)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tlsmini.GenerateSelfSigned("live.test", 500)
	if err != nil {
		t.Fatal(err)
	}
	server, err := handshake.NewServerConn(handshake.ServerConfig{Identity: id}, wire.Version1, h.DstConnID, h.SrcConnID)
	if err != nil {
		t.Fatal(err)
	}
	flight, err := server.HandleDatagram(append([]byte(nil), initial...))
	if err != nil {
		t.Fatal(err)
	}
	reply := flight[0]

	const local = 8443
	fromServer := &net.UDPAddr{IP: net.IPv4(142, 250, 0, 1), Port: 443}
	fromClient := &net.UDPAddr{IP: net.IPv4(103, 110, 0, 5), Port: 40000}
	var p telescope.Packet
	if !recordPacket(&p, fromServer, local, reply) || !p.IsResponse() || p.DstPort != local {
		t.Errorf("reply from port 443 mapped to %d -> %d, want a response to %d", p.SrcPort, p.DstPort, local)
	}
	if !recordPacket(&p, fromClient, local, initial) || !p.IsRequest() {
		t.Errorf("client datagram mapped to %d -> %d, want a request", p.SrcPort, p.DstPort)
	}
	if !recordPacket(&p, fromServer, 443, reply) || p.SrcPort != 443 || p.DstPort != 443 {
		t.Errorf("reply to a daemon on 443 mapped to %d -> %d, want 443 -> 443", p.SrcPort, p.DstPort)
	}

	var b bytes.Buffer
	d := dissect.NewDissector()
	describe(&b, d, fromClient, local, initial)
	if !strings.Contains(b.String(), `ClientHello sni="live.test"`) {
		t.Errorf("request line: %q", b.String())
	}
	b.Reset()
	opens := d.Metrics.OpenerHits + d.Metrics.OpenerMisses
	describe(&b, d, fromServer, local, reply)
	first, _, _ := strings.Cut(b.String(), "\n")
	if !strings.Contains(first, "Initial") || !strings.HasSuffix(first, " (server reply: not opened)") {
		t.Errorf("response line: %q", first)
	}
	if got := d.Metrics.OpenerHits + d.Metrics.OpenerMisses; got != opens {
		t.Errorf("logging a server reply made %d trial opens", got-opens)
	}
	b.Reset()
	describe(&b, d, &net.UDPAddr{IP: net.IPv4(142, 250, 0, 1), Port: 40001}, local, reply)
	if first, _, _ := strings.Cut(b.String(), "\n"); !strings.HasSuffix(first, " (undecryptable: backscatter-shaped)") {
		t.Errorf("request-direction reply line: %q", first)
	}
}

// TestServeRecordsCapture runs serve with -record: the two probes land
// in a QSND capture that the replay toolchain can open, the drain log
// reports the written count, and the manifest's telemetry carries the
// trace ledger (written and dropped) for the recording.
func TestServeRecordsCapture(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "live.qsnd")
	manifest := filepath.Join(dir, "manifest.json")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	out := &lockedBuffer{}
	diag := &lockedBuffer{}
	done := make(chan error, 1)
	opts := logMode(2)
	opts.record, opts.manifest = capPath, manifest
	go func() { done <- serve(opts, pc, out, diag) }()

	sendProbes(t, pc.LocalAddr().String())
	waitFor(t, out, "Initial", "not QUIC")

	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := diag.String(); !strings.Contains(s, "record drained: 2 records written") {
		t.Errorf("drain log missing:\n%s", s)
	}

	// The capture must be a valid QSND store holding both datagrams.
	f, err := os.Open(capPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := capture.NewSource(f)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sawQUIC, sawJunk bool
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if len(p.Payload) > 100 {
			sawQUIC = true
		}
		if string(p.Payload) == "definitely not quic" {
			sawJunk = true
		}
		if p.Proto != telescope.ProtoUDP || p.Src == 0 || p.SrcPort == 0 {
			t.Errorf("record %d lost addressing: %+v", n, p)
		}
	}
	if n != 2 || !sawQUIC || !sawJunk {
		t.Errorf("capture holds %d records (quic=%v junk=%v), want both probes", n, sawQUIC, sawJunk)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	for _, want := range []string{`"written": 2`, `"dropped": 0`, `"record"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %s:\n%s", want, data)
		}
	}
}

// TestServeMetricsEndpoint scrapes the live exposition while traffic
// flows and the final snapshot after shutdown, asserting well-formed
// Prometheus text format both times.
func TestServeMetricsEndpoint(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	diag := &lockedBuffer{}
	out := &lockedBuffer{}
	done := make(chan error, 1)
	opts := logMode(2)
	opts.metrics, opts.heartbeat = "127.0.0.1:0", 20*time.Millisecond
	go func() { done <- serve(opts, pc, out, diag) }()

	waitFor(t, diag, "metrics on http://")
	line := diag.String()
	url := line[strings.Index(line, "http://"):]
	url = strings.Fields(url)[0]

	sendProbes(t, pc.LocalAddr().String())
	waitFor(t, out, "Initial", "not QUIC")

	scrape := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("exposition content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Live scrape: the shards update the atomic banks as they analyse,
	// which at two workers is when the read loop's idle flush hands them
	// the partly filled dispatch batches — not on arrival.
	scrapeUntil(t, url, "quicsand_live_packets_total 2")
	liveDoc := scrape()
	for _, want := range []string{
		"# TYPE quicsand_live_packets_total counter",
		"quicsand_live_packets_total 2",
		`quicsand_live_shard_packets_total{shard="0"}`,
	} {
		if !strings.Contains(liveDoc, want) {
			t.Errorf("live exposition missing %q:\n%s", want, liveDoc)
		}
	}
	// Heartbeat gauges appear once the ticker has fired.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(scrape(), "quicsand_progress_packets_per_sec") {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat gauges never appeared in exposition")
		}
		time.Sleep(20 * time.Millisecond)
	}

	pc.Close()
	waitFor(t, out, "workers") // final snapshot flushed

	// Final scrape: the merged snapshot joins the document. The server
	// is closed by serve's defer, so scrape before serve returns is
	// racy — instead assert the snapshot text flushed to out carries
	// the dissect counters the endpoint would have served.
	if s := out.String(); !strings.Contains(s, "datagrams") {
		t.Errorf("final counter block missing:\n%s", s)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeNoGoroutineLeak runs the full serve lifecycle — metrics
// endpoint, heartbeat, traffic, shutdown — several times and asserts
// the goroutine count returns to baseline, guarding the heartbeat
// ticker and the HTTP server against leaks.
func TestServeNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out := &lockedBuffer{}
		done := make(chan error, 1)
		opts := logMode(2)
		opts.metrics, opts.heartbeat = "127.0.0.1:0", 10*time.Millisecond
		go func() { done <- serve(opts, pc, out, io.Discard) }()
		sendProbes(t, pc.LocalAddr().String())
		waitFor(t, out, "Initial", "not QUIC")
		pc.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines wind down asynchronously (http server Close, UDP
	// reader); poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeTraceOut runs serve with the flight recorder armed: the
// probes flow through the streamer's instrumented engine, and shutdown
// writes a parseable Chrome trace, prints the stage table, and
// references the trace from the manifest.
func TestServeTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "flight.json")
	manifest := filepath.Join(dir, "manifest.json")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	out := &lockedBuffer{}
	diag := &lockedBuffer{}
	done := make(chan error, 1)
	opts := logMode(2)
	opts.traceOut, opts.manifest = tracePath, manifest
	go func() { done <- serve(opts, pc, out, diag) }()

	sendProbes(t, pc.LocalAddr().String())
	waitFor(t, out, "Initial", "not QUIC")

	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	stages := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			stages[e.Name]++
		}
	}
	// The workers' feed side drains the streamer's dispatch queues
	// (scatter); analyze spans cover the analysis of both probes.
	if stages["analyze"] == 0 || stages["scatter"] == 0 {
		t.Errorf("trace missing engine stages: %v", stages)
	}
	if s := out.String(); !strings.Contains(s, "flight recorder:") {
		t.Errorf("stage table missing from final output:\n%s", s)
	}
	if s := diag.String(); !strings.Contains(s, "trace written to "+tracePath) {
		t.Errorf("trace diag line missing:\n%s", s)
	}
	if m, err := os.ReadFile(manifest); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(string(m), `"trace_file": "`+tracePath+`"`) {
		t.Errorf("manifest missing trace_file:\n%s", m)
	}
}
