package flood

import (
	"errors"
	"net"
	"time"

	"quicsand/internal/quicclient"
	"quicsand/internal/wire"
)

// LiveConfig parameterizes a replay against a real UDP server.
type LiveConfig struct {
	// Target is the server address.
	Target string
	// RatePPS is the replay rate; keep modest (≤ a few thousand) for
	// meaningful results on loopback.
	RatePPS int
	// Trace holds the recorded Initial datagrams to replay.
	Trace [][]byte
	// Collect is how long to gather responses after the replay.
	Collect time.Duration
}

// LiveResult summarizes a live replay.
type LiveResult struct {
	Sent      int
	Responses int
	// RetryResponses counts Retry packets among responses.
	RetryResponses int
	Elapsed        time.Duration
}

// RecordTrace produces a replay trace with the real client — the
// paper's quiche-recording step.
func RecordTrace(n int, version wire.Version) ([][]byte, error) {
	return quicclient.RecordInitials(n, version, "bench.quicsand.test")
}

// Send replays trace to the address to from conn, one datagram every
// 1/ratePPS seconds, and reports how many were written. The socket is
// the caller's: whoever reads it sees the server's replies, which is how
// a telescope's own socket stands in for a spoofed source inside its
// prefix.
func Send(conn net.PacketConn, to net.Addr, ratePPS int, trace [][]byte) (sent int, err error) {
	if ratePPS <= 0 {
		return 0, errors.New("flood: rate must be positive")
	}
	interval := time.Second / time.Duration(ratePPS)
	next := time.Now()
	for _, pkt := range trace {
		if _, err := conn.WriteTo(pkt, to); err != nil {
			return sent, err
		}
		sent++
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	return sent, nil
}

// RunLive replays the trace from a single spoofing socket. Responses
// are counted (not matched per-connection): on loopback the kernel
// delivers everything, so the response ratio mirrors server-side
// acceptance.
func RunLive(cfg LiveConfig) (*LiveResult, error) {
	raddr, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if cfg.Collect == 0 {
		cfg.Collect = time.Second
	}

	res := &LiveResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 65535)
		for {
			if err := conn.SetReadDeadline(time.Now().Add(cfg.Collect)); err != nil {
				return
			}
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			res.Responses++
			if h, err := wire.ParseLongHeader(buf[:n]); err == nil && h.Type == wire.PacketTypeRetry {
				res.RetryResponses++
			}
		}
	}()

	start := time.Now()
	res.Sent, err = Send(conn, raddr, cfg.RatePPS, cfg.Trace)
	if err != nil {
		conn.Close() // ends the collector
		<-done
		return nil, err
	}
	<-done
	res.Elapsed = time.Since(start)
	return res, nil
}
