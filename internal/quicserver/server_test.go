package quicserver

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicsand/internal/quicclient"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

var serverIdentity *tlsmini.Identity

func init() {
	id, err := tlsmini.GenerateSelfSigned("server.test", 500)
	if err != nil {
		panic(err)
	}
	serverIdentity = id
}

// eventually polls cond for up to a second; the client returns before
// the server's worker has processed the final flight.
func eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error(msg)
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Identity == nil {
		cfg.Identity = serverIdentity
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHandshakeOverUDP(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	res, err := quicclient.Dial(s.Addr().String(), quicclient.Config{ServerName: "server.test"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("handshake incomplete: %+v", res)
	}
	if res.SawRetry {
		t.Error("retry seen although disabled")
	}
	if res.Version != wire.Version1 {
		t.Errorf("version = %v", res.Version)
	}
	eventually(t, func() bool { return s.Metrics.Handshakes.Load() > 0 }, "server did not record completion")
}

func TestHandshakeWithRetry(t *testing.T) {
	s := startServer(t, Config{Workers: 2, EnableRetry: true})
	res, err := quicclient.Dial(s.Addr().String(), quicclient.Config{ServerName: "server.test"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("handshake incomplete: %+v", res)
	}
	if !res.SawRetry {
		t.Fatal("no retry although enabled — the §6 probe depends on this signal")
	}
	if res.RTTs != 3 {
		t.Errorf("RTTs = %d, want 3 (retry adds one round trip)", res.RTTs)
	}
	if s.Metrics.RetriesSent.Load() == 0 {
		t.Error("no retries recorded")
	}
}

func TestDraftVersionsOverUDP(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	for _, v := range []wire.Version{wire.VersionDraft29, wire.VersionMVFST27} {
		res, err := quicclient.Dial(s.Addr().String(), quicclient.Config{Version: v, ServerName: "server.test"})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Completed || res.Version != v {
			t.Fatalf("%v: %+v", v, res)
		}
	}
}

func TestVersionNegotiationOverUDP(t *testing.T) {
	s := startServer(t, Config{Workers: 1, SupportedVersions: []wire.Version{wire.Version1}})
	res, err := quicclient.Dial(s.Addr().String(), quicclient.Config{Version: wire.VersionDraft29, ServerName: "server.test"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SawVersionNegotiation {
		t.Fatal("no version negotiation")
	}
	if !res.Completed || res.Version != wire.Version1 {
		t.Fatalf("negotiation outcome: %+v", res)
	}
	if s.Metrics.VNSent.Load() == 0 {
		t.Error("VN not recorded")
	}
}

func TestTokenValidation(t *testing.T) {
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	s, err := New(pc, Config{Identity: serverIdentity, EnableRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	addr1 := &net.UDPAddr{IP: net.IPv4(1, 2, 3, 4), Port: 1000}
	addr2 := &net.UDPAddr{IP: net.IPv4(5, 6, 7, 8), Port: 1000}
	odcid := wire.ConnectionID{1, 2, 3, 4}

	tok := s.mintToken(addr1, odcid)
	if !s.validateToken(addr1, tok) {
		t.Fatal("fresh token rejected")
	}
	if s.validateToken(addr2, tok) {
		t.Fatal("token accepted from different address")
	}
	tampered := append([]byte(nil), tok...)
	tampered[len(tampered)-1] ^= 1
	if s.validateToken(addr1, tampered) {
		t.Fatal("tampered token accepted")
	}
	// Same-IP different-port must still validate (NAT rebinding).
	addr1b := &net.UDPAddr{IP: net.IPv4(1, 2, 3, 4), Port: 2222}
	if !s.validateToken(addr1b, tok) {
		t.Fatal("token rejected after port change")
	}
	if s.validateToken(addr1, []byte("short")) {
		t.Fatal("garbage token accepted")
	}
}

func TestTokenExpiry(t *testing.T) {
	now := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	s, err := New(pc, Config{Identity: serverIdentity, EnableRetry: true,
		TokenLifetime: 10 * time.Second, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := &net.UDPAddr{IP: net.IPv4(9, 9, 9, 9), Port: 443}
	tok := s.mintToken(addr, wire.ConnectionID{1})
	now = now.Add(5 * time.Second)
	if !s.validateToken(addr, tok) {
		t.Fatal("token rejected before expiry")
	}
	now = now.Add(6 * time.Second)
	if s.validateToken(addr, tok) {
		t.Fatal("expired token accepted")
	}
}

func TestSmallInitialDropped(t *testing.T) {
	s := startServer(t, Config{Workers: 1})
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A structurally valid but undersized Initial must be ignored
	// (anti-amplification, RFC 9000 §14.1).
	small := []byte{0xc0, 0, 0, 0, 1, 1, 0xaa, 1, 0xbb, 0x00, 0x41, 0x00}
	small = append(small, make([]byte, 300)...)
	if _, err := conn.Write(small); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if s.Metrics.Initials.Load() != 0 {
		t.Error("small initial processed")
	}
	if s.Metrics.BadDatagrams.Load() == 0 {
		t.Error("small initial not counted as bad")
	}
}

func TestConnectionTableLimit(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueuePerWorker: 4})
	// Six distinct handshake attempts: only 4 connection slots exist.
	completed := 0
	for i := 0; i < 6; i++ {
		res, err := quicclient.Dial(s.Addr().String(), quicclient.Config{
			ServerName: "server.test", Timeout: 300 * time.Millisecond, Retries: 1,
		})
		if err == nil && res.Completed {
			completed++
		}
	}
	// Handshakes complete and stay in the table (no eviction in this
	// minimal server), so later clients are dropped — the
	// state-overflow effect.
	if completed == 6 {
		t.Errorf("all 6 handshakes completed despite 4-slot table (dropped=%d)", s.Metrics.Dropped.Load())
	}
	if s.Metrics.Dropped.Load() == 0 {
		t.Error("no drops recorded")
	}
}

// TestCloseUnderFlood closes servers while two senders pour junk at
// them. readLoop may hold a datagram it read just before the socket
// closed; Close must not close the worker queues under it, or queueing
// that datagram panics with a send on a closed channel.
func TestCloseUnderFlood(t *testing.T) {
	junk := []byte("not quic")
	for i := 0; i < 300; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(pc, Config{Identity: serverIdentity, Workers: 2, QueuePerWorker: 4})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			conn, err := net.Dial("udp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					select {
					case <-stop:
						return
					default:
						conn.Write(junk) // refused once the server is gone
					}
				}
			}()
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Metrics.Datagrams.Load() < 50 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		s.Close()
		close(stop)
		wg.Wait()
	}
}

// TestCloseAnswersCountedInitials: every Initial the server has counted
// is answered by the time Close returns. A worker counts an Initial
// before it runs the handshake, so Close must keep the socket open
// until the workers are joined, or the last replies are lost.
func TestCloseAnswersCountedInitials(t *testing.T) {
	trace, err := quicclient.RecordInitials(8, wire.Version1, "server.test")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(pc, Config{Identity: serverIdentity, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		client, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range trace {
			if _, err := client.WriteTo(d, s.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); s.Metrics.Initials.Load() < uint64(len(trace)); {
			if time.Now().After(deadline) {
				t.Fatalf("server counted %d of %d Initials", s.Metrics.Initials.Load(), len(trace))
			}
			runtime.Gosched()
		}
		s.Close()
		client.Close()
		if got, want := s.Metrics.Responses.Load(), uint64(2*len(trace)); got != want {
			t.Fatalf("round %d: %d replies sent by the time Close returned, want %d", round, got, want)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := quicclient.Dial(s.Addr().String(), quicclient.Config{ServerName: "server.test"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics.Initials.Load(); got != 3 {
		t.Errorf("initials = %d", got)
	}
	if got := s.Metrics.Accepted.Load(); got != 3 {
		t.Errorf("accepted = %d", got)
	}
	eventually(t, func() bool { return s.Metrics.Handshakes.Load() == 3 }, "handshakes != 3")
	// Each handshake elicits ≥3 response datagrams (flight + done).
	eventually(t, func() bool { return s.Metrics.Responses.Load() >= 9 }, "responses < 9")
}
