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
	"testing"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/handshake"
	"quicsand/internal/telemetry"
)

// sendInitials fires n copies of one genuine QUIC Initial at addr from
// a single source socket — enough same-source QUIC traffic to cross
// the default rate threshold (RateCount 31 at 60s/0.5pps).
func sendInitials(t *testing.T, addr string, n int) {
	t.Helper()
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "daemon.test"})
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
	for i := 0; i < n; i++ {
		if _, err := conn.Write(initial); err != nil {
			t.Fatal(err)
		}
	}
}

// scrapeUntil polls the exposition endpoint until needle appears.
func scrapeUntil(t *testing.T, url, needle string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), needle) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q", needle)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonAlertsCheckpointManifest is the daemon end-to-end: 40
// same-source Initials stream through the incremental pipeline, the
// checkpoint ticker rewrites the image while ingest runs, and the
// graceful drain emits the final checkpoint — alerts as JSON lines, a
// resumable QCKP image, and manifest snapshots.
func TestDaemonAlertsCheckpointManifest(t *testing.T) {
	dir := t.TempDir()
	alerts := filepath.Join(dir, "alerts.jsonl")
	ckpt := filepath.Join(dir, "state.qckp")
	manifest := filepath.Join(dir, "manifest.json")
	record := filepath.Join(dir, "daemon.qsnd")

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := serveOpts{
		workers:    2,
		metrics:    "127.0.0.1:0",
		window:     time.Minute,
		ckptEvery:  50 * time.Millisecond,
		alerts:     alerts,
		checkpoint: ckpt,
		manifest:   manifest,
		record:     record,
		seed:       7,
		scale:      0.001,
	}
	out := &lockedBuffer{}
	diag := &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- serveDaemon(opts, pc, out, diag) }()

	waitFor(t, diag, "metrics on http://", "daemon mode")
	line := diag.String()
	url := line[strings.Index(line, "http://"):]
	url = strings.Fields(url)[0]

	sendInitials(t, pc.LocalAddr().String(), 40)
	scrapeUntil(t, url, "quicsand_live_packets_total 40")

	// Let the ticker freeze at least one mid-stream checkpoint with
	// ingest still live before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := os.ReadFile(ckpt); err == nil && len(data) > 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint ticker never wrote an image")
		}
		time.Sleep(20 * time.Millisecond)
	}

	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Alert stream: 40 same-source Initials in under a window must have
	// opened a rate episode; the final flush closed it into the file.
	alertData, err := os.ReadFile(alerts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"rate"`, `"src":"127.0.0.1"`} {
		if !strings.Contains(string(alertData), want) {
			t.Errorf("alert stream missing %s:\n%s", want, alertData)
		}
	}

	// The final checkpoint image must be branded and resumable at the
	// run's substrate parameters, positioned at every offered packet.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("QCKP")) {
		t.Fatalf("checkpoint image not QCKP-branded: % x", data[:8])
	}
	resumed, err := quicsand.ResumeStreamer(quicsand.StreamConfig{
		Config: quicsand.Config{Seed: 7, Scale: 0.001, Workers: 2},
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Position(); got != 40 {
		t.Errorf("resumed daemon checkpoint at position %d, want 40", got)
	}
	reduced := resumed.Close().Analysis()

	// Manifest: snapshot rows accumulated, the final one at the drain.
	mdata, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	// The rows are computed from the frozen shards without reducing an
	// Analysis; they must equal what the reduction gives. The final row
	// is checked against the reduced final image, every row against the
	// stream itself: all 40 packets are captured QUIC from one source,
	// so a row at position N > 0 reduces to N packets in one session.
	var doc struct {
		Snapshots []telemetry.StreamSnapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(mdata, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Snapshots) < 2 {
		t.Fatalf("manifest has %d snapshot rows, want a ticked one and the drain", len(doc.Snapshots))
	}
	for i, row := range doc.Snapshots {
		wantSessions := 0
		if row.Position > 0 {
			wantSessions = 1
		}
		if row.TelescopeTotal != row.Position || row.QUICSessions != wantSessions {
			t.Errorf("snapshot %d at position %d: telescope_total=%d quic_sessions=%d, want %d and %d",
				i, row.Position, row.TelescopeTotal, row.QUICSessions, row.Position, wantSessions)
		}
	}
	last := doc.Snapshots[len(doc.Snapshots)-1]
	if last.QUICSessions != len(reduced.QUICSessions) || last.TelescopeTotal != reduced.Telescope.Total {
		t.Errorf("final snapshot row quic_sessions=%d telescope_total=%d, Analysis() reduces to %d and %d",
			last.QUICSessions, last.TelescopeTotal, len(reduced.QUICSessions), reduced.Telescope.Total)
	}
	for _, want := range []string{`"snapshots"`, `"alerts_total"`, `"position": 40`, `"window": "1m0s"`} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("manifest missing %s:\n%s", want, mdata)
		}
	}
	if s := out.String(); !strings.Contains(s, "daemon drained: 40 captured packets") {
		t.Errorf("drain summary missing:\n%s", s)
	}
	if s := diag.String(); !strings.Contains(s, "record drained: 40 records written") {
		t.Errorf("record drain log missing:\n%s", s)
	}
}

// TestDaemonRecordReplaysToSameState closes the loop the daemon's
// destination rewrite exists for: the capture a daemon records replays
// through the streaming pipeline to the exact position and alert
// stream the daemon itself produced.
func TestDaemonRecordReplaysToSameState(t *testing.T) {
	dir := t.TempDir()
	record := filepath.Join(dir, "daemon.qsnd")
	alerts := filepath.Join(dir, "alerts.jsonl")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := serveOpts{
		workers: 1, metrics: "127.0.0.1:0",
		window: time.Minute, ckptEvery: 0,
		alerts: alerts, record: record,
		seed: 7, scale: 0.001,
	}
	out := &lockedBuffer{}
	diag := &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- serveDaemon(opts, pc, out, diag) }()
	waitFor(t, diag, "metrics on http://")
	line := diag.String()
	url := line[strings.Index(line, "http://"):]
	url = strings.Fields(url)[0]

	sendInitials(t, pc.LocalAddr().String(), 35)
	scrapeUntil(t, url, "quicsand_live_packets_total 35")
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Replay the recorded capture with the same detector window (the
	// path `quicsand replay -alerts` takes): the replayed alert stream
	// must byte-match the daemon's, and the position must agree.
	f, err := os.Open(record)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := capture.NewSource(f)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := detect.Default()
	final, err := quicsand.StreamReplay(quicsand.StreamConfig{
		Config: quicsand.Config{Seed: 7, Scale: 0.001, Workers: 1},
		Detect: &dcfg,
	}, src, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Position(); got != 35 {
		t.Errorf("replayed capture position %d, want 35", got)
	}
	var got bytes.Buffer
	if err := detect.WriteAlerts(&got, final.Alerts); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(alerts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("replayed alert stream differs from daemon's:\n--- daemon ---\n%s--- replay ---\n%s", want, got.Bytes())
	}
}

// TestDaemonNoGoroutineLeak cycles the full daemon lifecycle — metrics
// endpoint, heartbeat, checkpoint ticker, shard workers, drain — and
// asserts the goroutine count returns to baseline.
func TestDaemonNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		opts := serveOpts{
			workers:   2,
			metrics:   "127.0.0.1:0",
			heartbeat: 10 * time.Millisecond,
			window:    time.Minute,
			ckptEvery: 10 * time.Millisecond,
			alerts:    filepath.Join(dir, "alerts.jsonl"),
			seed:      7,
			scale:     0.001,
		}
		out := &lockedBuffer{}
		diag := &lockedBuffer{}
		done := make(chan error, 1)
		go func() { done <- serveDaemon(opts, pc, out, diag) }()
		waitFor(t, diag, "metrics on http://")
		line := diag.String()
		url := line[strings.Index(line, "http://"):]
		url = strings.Fields(url)[0]
		sendInitials(t, pc.LocalAddr().String(), 5)
		scrapeUntil(t, url, "quicsand_live_packets_total 5")
		pc.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
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

// TestClassicRejectsDaemonFlags pins the flag-validation contract:
// daemon-only flags without -window fail loudly.
func TestClassicRejectsDaemonFlags(t *testing.T) {
	for _, opts := range []serveOpts{
		{alerts: "x"},
		{checkpoint: "x"},
		{detectConfig: "x"},
		{memBudget: 10},
	} {
		if err := opts.validateClassic(); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("%+v: want a requires -window error, got %v", opts, err)
		}
	}
}
