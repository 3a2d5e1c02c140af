package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/flood"
	"quicsand/internal/netmodel"
	"quicsand/internal/quicserver"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// TestBackscatterChain closes the paper's causal loop on real bytes. A
// quicserver on 127.0.0.1:443 is flooded with recorded client Initials
// sent from telescoped's own socket, the loopback stand-in for a
// spoofed source inside the telescope's prefix. The server's replies
// come from remote port 443, so the daemon maps them as backscatter,
// dissects them without opening their Initials, sessionises and alerts
// on them, and its -record capture replays to the same picture. RETRY
// off: an Initial+Handshake flight per Initial, amplified but within
// RFC 9000 §8.1's factor 3. RETRY on: one small Retry per Initial,
// amplification below 1. Either way the live replies per Initial fall
// in the direction the Table 1 capacity model gives.
func TestBackscatterChain(t *testing.T) {
	const n, pps = 300, 500
	trace, err := flood.RecordTrace(n, wire.Version1)
	if err != nil {
		t.Fatal(err)
	}
	initialBytes := 0
	for _, d := range trace {
		initialBytes += len(d)
	}
	id, err := tlsmini.GenerateSelfSigned("chain.quicsand.test", 500)
	if err != nil {
		t.Fatal(err)
	}
	liveRatio := map[bool]uint64{}
	for _, retry := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("retry=%v,workers=%d", retry, workers), func(t *testing.T) {
				srvConn, err := net.ListenPacket("udp", "127.0.0.1:443")
				if errors.Is(err, syscall.EACCES) {
					t.Skipf("binding UDP/443: %v (allow it with sysctl net.ipv4.ip_unprivileged_port_start=443)", err)
				}
				if err != nil {
					t.Fatal(err)
				}
				srv, err := quicserver.New(srvConn, quicserver.Config{Identity: id, Workers: 2, EnableRetry: retry})
				if err != nil {
					srvConn.Close()
					t.Fatal(err)
				}
				defer srv.Close()

				dir := t.TempDir()
				opts := serveOpts{
					workers: workers,
					window:  10 * time.Second,
					alerts:  filepath.Join(dir, "alerts.jsonl"),
					record:  filepath.Join(dir, "chain.qsnd"),
					metrics: "127.0.0.1:0",
					seed:    7, scale: 0.001,
				}
				pc, err := net.ListenPacket("udp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				out, diag := &lockedBuffer{}, &lockedBuffer{}
				done := make(chan error, 1)
				go func() { done <- serve(opts, pc, out, diag) }()
				waitFor(t, diag, "metrics on http://", "checkpoint-every=")
				line := diag.String()
				url := strings.Fields(line[strings.Index(line, "http://"):])[0]

				if sent, err := flood.Send(pc, srv.Addr(), pps, trace); err != nil || sent != n {
					t.Fatalf("flood sent %d of %d: %v", sent, n, err)
				}
				// A worker counts an Initial before it replies; Close joins
				// the workers, so after it every reply has been sent.
				for deadline := time.Now().Add(10 * time.Second); srv.Metrics.Initials.Load() < n; {
					if time.Now().After(deadline) {
						t.Fatalf("server handled %d of %d Initials", srv.Metrics.Initials.Load(), n)
					}
					time.Sleep(10 * time.Millisecond)
				}
				srv.Close()
				replies := srv.Metrics.Responses.Load()
				scrapeUntil(t, url, fmt.Sprintf("quicsand_live_packets_total %d\n", replies))
				pc.Close()
				if err := <-done; err != nil {
					t.Fatal(err)
				}

				// The server's side: every Initial answered, state only
				// without RETRY.
				accepted, retries := srv.Metrics.Accepted.Load(), srv.Metrics.RetriesSent.Load()
				wantPerInitial, wantAccepted, wantRetries := uint64(2), uint64(n), uint64(0)
				if retry {
					wantPerInitial, wantAccepted, wantRetries = 1, 0, n
				}
				if replies != wantPerInitial*n || accepted != wantAccepted || retries != wantRetries {
					t.Errorf("server: %d replies, %d accepted, %d retries; want %d, %d, %d",
						replies, accepted, retries, wantPerInitial*n, wantAccepted, wantRetries)
				}
				liveRatio[retry] = replies / n

				// The telescope's side, from the recorded capture.
				f, err := os.Open(opts.record)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				src, err := capture.NewSource(f)
				if err != nil {
					t.Fatal(err)
				}
				a, err := quicsand.Replay(quicsand.Config{Seed: 7, Scale: 0.001, Workers: workers}, src)
				if err != nil {
					t.Fatal(err)
				}
				if a.Telescope.Total != replies || len(a.RequestSessions) != 0 || len(a.ResponseSessions) != 1 {
					t.Fatalf("replay: %d packets, %d request and %d response sessions; want %d, 0 and 1",
						a.Telescope.Total, len(a.RequestSessions), len(a.ResponseSessions), replies)
				}
				s := a.ResponseSessions[0]
				var want [6]int
				wantSCIDs := accepted
				if retry {
					want[wire.PacketTypeRetry] = n
					wantSCIDs = retries
				} else {
					want[wire.PacketTypeInitial], want[wire.PacketTypeHandshake] = n, 2*n
				}
				if s.Src != netmodel.MustAddr("127.0.0.1") || s.TypeCounts != want || uint64(s.UniqueSCIDs()) != wantSCIDs {
					t.Errorf("session from %v: types %v, %d SCIDs; want 127.0.0.1, %v, %d",
						s.Src, s.TypeCounts, s.UniqueSCIDs(), want, wantSCIDs)
				}
				// Server replies are never trial-opened (DESIGN.md §4).
				d := a.Telemetry.Dissect
				if a.NonQUIC != 0 || d.Decrypted != 0 || d.OpenerHits+d.OpenerMisses != 0 {
					t.Errorf("non_quic %d, decrypted %d, opens %d; want all 0",
						a.NonQUIC, d.Decrypted, d.OpenerHits+d.OpenerMisses)
				}
				amp := float64(s.Bytes) / float64(initialBytes)
				if (!retry && (amp <= 1 || amp > 3)) || (retry && amp >= 1) {
					t.Errorf("amplification %.2f out of bounds (RETRY off: (1, 3]; on: < 1)", amp)
				}

				// The daemon's alerts: one rate episode for the server, and
				// with RETRY one cid-ratio episode too — each Retry carries a
				// fresh SCID (ratio ≈ 1), while without RETRY each SCID rides
				// an Initial and two Handshake packets (≈ 0.33).
				wantKinds := []string{"rate from 127.0.0.1"}
				if retry {
					wantKinds = append(wantKinds, "cid-ratio from 127.0.0.1")
				}
				data, err := os.ReadFile(opts.alerts)
				if err != nil {
					t.Fatal(err)
				}
				var kinds []string
				sc := bufio.NewScanner(strings.NewReader(string(data)))
				for sc.Scan() {
					var al struct{ Kind, Src string }
					if err := json.Unmarshal(sc.Bytes(), &al); err != nil {
						t.Fatal(err)
					}
					kinds = append(kinds, al.Kind+" from "+al.Src)
				}
				if !slices.Equal(kinds, wantKinds) {
					t.Errorf("alerts %q, want %q:\n%s", kinds, wantKinds, data)
				}
				t.Logf("%d replies (%.2f× the Initial bytes), %d SCIDs, alerts: %s",
					replies, amp, s.UniqueSCIDs(), strings.TrimSpace(string(data)))
			})
		}
	}

	// The capacity model and the live server agree in direction: RETRY
	// cuts the replies per Initial (model 4 → 1, live 2 → 1; the model
	// also counts two keep-alive PINGs the server never sends).
	model := func(retry bool) int {
		r := flood.RunModel(flood.ModelConfig{Workers: 2, Retry: retry}, n, pps)
		return r.ServerResps / r.ClientReqs
	}
	if off, on := model(false), model(true); off != 4 || on != 1 {
		t.Errorf("model replies per request: RETRY off %d, on %d; want 4 and 1", off, on)
	}
	if off, on := liveRatio[false], liveRatio[true]; off != 0 && on != 0 && off <= on {
		t.Errorf("live replies per Initial: RETRY off %d, on %d; want off > on", off, on)
	}
}
