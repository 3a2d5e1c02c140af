package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/handshake"
	"quicsand/internal/quiccrypto"
	"quicsand/internal/telemetry"
	"quicsand/internal/wire"
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

// runDaemon serves opts (metrics endpoint forced on) on a fresh loopback
// socket, sends n same-source Initials, waits until /metrics shows all of
// them analysed, runs beforeClose (may be nil) with ingest still live,
// then closes the socket and waits for the graceful drain.
func runDaemon(t *testing.T, opts serveOpts, n int, beforeClose func()) (out, diag *lockedBuffer) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts.metrics = "127.0.0.1:0"
	out, diag = &lockedBuffer{}, &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- serve(opts, pc, out, diag) }()
	waitFor(t, diag, "metrics on http://", "checkpoint-every=")
	line := diag.String()
	url := strings.Fields(line[strings.Index(line, "http://"):])[0]

	sendInitials(t, pc.LocalAddr().String(), n)
	scrapeUntil(t, url, fmt.Sprintf("quicsand_live_packets_total %d", n))
	if beforeClose != nil {
		beforeClose()
	}
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return out, diag
}

// nonShortestInitial is a 43-byte client Initial to DCID
// 0102030405060708, sealed with the public version-1 Initial keys, whose
// plaintext 40 00 12 starts with PADDING's frame type written as a
// two-byte varint — a frame a walk that accepted the type would consume
// nothing of.
const nonShortestInitial = "c7000000010801020304050607080409090909004015ab1679f50827f8b084a0d4d54d102769720fda3180"

// TestDaemonSurvivesNonShortestFrameType sends that datagram to a
// running daemon with detectors on, then genuine Initials from the same
// source, so to the same shard: the shard must go on analysing and
// /metrics must go on answering.
func TestDaemonSurvivesNonShortestFrameType(t *testing.T) {
	dg, err := hex.DecodeString(nonShortestInitial)
	if err != nil {
		t.Fatal(err)
	}
	h, err := wire.ParseLongHeader(dg)
	if err != nil {
		t.Fatal(err)
	}
	opener, err := quiccrypto.NewInitialOpener(wire.Version1, h.DstConnID, quiccrypto.PerspectiveServer)
	if err != nil {
		t.Fatal(err)
	}
	if plain, _, err := opener.Open(dg, h.HeaderLen()); err != nil || !bytes.Equal(plain, []byte{0x40, 0x00, 0x12}) {
		t.Fatalf("fixture opens to % x, err %v", plain, err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := serveOpts{workers: 2, window: 10 * time.Second, seed: 7, scale: 0.001, metrics: "127.0.0.1:0"}
	out, diag := &lockedBuffer{}, &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- serve(opts, pc, out, diag) }()
	waitFor(t, diag, "metrics on http://")
	line := diag.String()
	url := strings.Fields(line[strings.Index(line, "http://"):])[0]

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(dg); err != nil {
		t.Fatal(err)
	}
	scrapeUntil(t, url, "quicsand_live_packets_total 1\n")
	sendInitials(t, pc.LocalAddr().String(), 3)
	scrapeUntil(t, url, "quicsand_live_packets_total 4\n")
	pc.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
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

	opts := serveOpts{
		workers:    2,
		window:     time.Minute,
		ckptEvery:  50 * time.Millisecond,
		alerts:     alerts,
		checkpoint: ckpt,
		manifest:   manifest,
		record:     record,
		seed:       7,
		scale:      0.001,
	}
	out, diag := runDaemon(t, opts, 40, func() {
		// Let the ticker freeze at least one mid-stream checkpoint with
		// ingest still live before shutting down.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if data, err := os.ReadFile(ckpt); err == nil && len(data) > 4 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("checkpoint ticker never wrote an image")
			}
			time.Sleep(20 * time.Millisecond)
		}
	})

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
	final := resumed.Close()
	if got := final.Position(); got != 40 {
		t.Errorf("resumed daemon checkpoint at position %d, want 40", got)
	}
	reduced := final.Analysis()

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
// destination rewrite exists for, with and without -window: the capture
// a run records replays through quicsand.Replay to the analysis of the
// run's own final checkpoint, and with detectors it streams to the exact
// alert stream the daemon produced. No checkpoint ticks, and 35 packets
// fill no dispatch batch: at workers 2 it is the read loop's idle flush
// that lets /metrics see them before the drain. Both modes' manifests
// carry the same config keys.
func TestDaemonRecordReplaysToSameState(t *testing.T) {
	configKeys := map[time.Duration][]string{}
	for _, window := range []time.Duration{time.Minute, 0} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("workers=%d", workers)
			if window == 0 {
				name = "window=0," + name
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				opts := serveOpts{
					workers: workers,
					window:  window, ckptEvery: 0,
					record:     filepath.Join(dir, "daemon.qsnd"),
					checkpoint: filepath.Join(dir, "state.qckp"),
					manifest:   filepath.Join(dir, "manifest.json"),
					seed:       7, scale: 0.001,
				}
				if window > 0 {
					opts.alerts = filepath.Join(dir, "alerts.jsonl")
				}
				runDaemon(t, opts, 35, nil)
				cfg := quicsand.Config{Seed: 7, Scale: 0.001, Workers: workers}
				openRecord := func() capture.Source {
					f, err := os.Open(opts.record)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { f.Close() })
					src, err := capture.NewSource(f)
					if err != nil {
						t.Fatal(err)
					}
					return src
				}

				// The run's final analysis is its final checkpoint image's.
				img, err := os.ReadFile(opts.checkpoint)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := quicsand.ResumeStreamer(quicsand.StreamConfig{Config: cfg}, img)
				if err != nil {
					t.Fatal(err)
				}
				live := resumed.Close().Analysis()
				replayed, err := quicsand.Replay(cfg, openRecord())
				if err != nil {
					t.Fatal(err)
				}
				if got := replayed.Telescope.Total; got != 35 || live.Telescope.Total != 35 {
					t.Errorf("telescope packets: replayed %d, live %d, want 35", got, live.Telescope.Total)
				}
				if replayed.RenderAll() != live.RenderAll() {
					t.Errorf("replayed analysis differs from the run's:\n--- run ---\n%s--- replay ---\n%s",
						live.Headline(), replayed.Headline())
				}

				var m struct {
					Config map[string]any `json:"config"`
				}
				if data, err := os.ReadFile(opts.manifest); err != nil {
					t.Fatal(err)
				} else if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				configKeys[window] = slices.Sorted(maps.Keys(m.Config))
				if window == 0 {
					return
				}

				// Replay the recorded capture with the same detector window (the
				// alerts `quicsand replay -alerts` writes): the replayed alert
				// stream must byte-match the daemon's, and the position must agree.
				dcfg := detect.Default()
				s, err := quicsand.NewStreamer(quicsand.StreamConfig{Config: cfg, Detect: &dcfg})
				if err != nil {
					t.Fatal(err)
				}
				for src := openRecord(); ; {
					p, err := src.Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					s.Offer(p)
				}
				final := s.Close()
				if got := final.Position(); got != 35 {
					t.Errorf("replayed capture position %d, want 35", got)
				}
				var got bytes.Buffer
				if err := detect.WriteAlerts(&got, final.Alerts); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(opts.alerts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got.Bytes()) {
					t.Errorf("replayed alert stream differs from daemon's:\n--- daemon ---\n%s--- replay ---\n%s", want, got.Bytes())
				}
			})
		}
	}
	if a, b := configKeys[time.Minute], configKeys[0]; a != nil && b != nil && !slices.Equal(a, b) {
		t.Errorf("manifest config keys differ: -window 1m %v, -window 0 %v", a, b)
	}
}

// TestDaemonTraceOut runs the daemon with -trace-out at two workers:
// the streaming pipeline records the flight timeline the batch runs do,
// the drain writes it as loadable Chrome trace JSON and prints the
// stage table, and the manifest references the file and carries the
// engine's stage timings.
func TestDaemonTraceOut(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "daemon-trace.json")
	manifest := filepath.Join(dir, "manifest.json")
	out, _ := runDaemon(t, serveOpts{
		workers: 2,
		window:  time.Minute, ckptEvery: 20 * time.Millisecond,
		traceOut: trace, manifest: manifest,
		seed: 7, scale: 0.001,
	}, 30, nil)

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("daemon trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name]++
		}
	}
	for _, want := range []string{"plan", "scatter", "analyze", "dissect", "sessions", "reduce"} {
		if spans[want] == 0 {
			t.Errorf("daemon trace has no %q spans: %v", want, spans)
		}
	}
	if s := out.String(); !strings.Contains(s, "stage-busy % per") {
		t.Errorf("drain output misses the stage table:\n%s", s)
	}

	mdata, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m telemetry.Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	if m.TraceFile != trace {
		t.Errorf("manifest trace_file = %q, want %q", m.TraceFile, trace)
	}
	stages := map[string]uint64{}
	for _, st := range m.Stages {
		stages[st.Name] = st.Items
	}
	if len(m.Stages) != 3 || stages["analyze"] != 30 || stages["schedule"] == 0 {
		t.Errorf("manifest stages = %+v, want schedule, analyze (30 items), reduce", m.Stages)
	}
}

// TestDaemonNoGoroutineLeak cycles the full daemon lifecycle — metrics
// endpoint, heartbeat, checkpoint ticker, shard workers, drain — and
// asserts the goroutine count returns to baseline.
func TestDaemonNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		runDaemon(t, serveOpts{
			workers:   2,
			heartbeat: 10 * time.Millisecond,
			window:    time.Minute,
			ckptEvery: 10 * time.Millisecond,
			alerts:    filepath.Join(t.TempDir(), "alerts.jsonl"),
			seed:      7,
			scale:     0.001,
		}, 5, nil)
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

// TestClassicRejectsDaemonFlags pins the flag contract without -window:
// the two flags that configure detectors fail loudly, and -checkpoint
// works as at any window — the drain writes an image ResumeStreamer
// accepts, positioned after every offered packet.
func TestClassicRejectsDaemonFlags(t *testing.T) {
	for _, opts := range []serveOpts{
		{alerts: "x"},
		{detectConfig: "x"},
	} {
		if _, err := opts.detectors(); err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("%+v: want a requires -window error, got %v", opts, err)
		}
	}

	ckpt := filepath.Join(t.TempDir(), "state.qckp")
	runDaemon(t, serveOpts{workers: 2, checkpoint: ckpt, seed: 7, scale: 0.001}, 3, nil)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := quicsand.ResumeStreamer(quicsand.StreamConfig{
		Config: quicsand.Config{Seed: 7, Scale: 0.001, Workers: 2},
	}, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Close().Position(); got != 3 {
		t.Errorf("log-mode checkpoint at position %d, want 3", got)
	}
}

// TestWriteFileAtomicCleansUp pins the checkpoint writer's two promises:
// a written image replaces the old one with no temporary file left
// beside it, and a failed rename (here onto a directory) returns the
// error and still leaves no temporary file.
func TestWriteFileAtomicCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.qckp")
	for _, image := range []string{"first image", "second"} {
		if err := writeFileAtomic(path, []byte(image)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != image {
			t.Fatalf("read back %q, %v; want %q", got, err, image)
		}
	}

	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(blocked, []byte("image")); err == nil {
		t.Error("renaming onto a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"blocked", "state.qckp"}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}
