// Package quicclient dials QUIC handshakes over UDP — the active
// measurement counterpart to the telescope's passive view. cmd/quicprobe
// uses it to reproduce the paper's §6 RETRY-deployment probe.
package quicclient

import (
	"errors"
	"fmt"
	"net"
	"time"

	"quicsand/internal/handshake"
	"quicsand/internal/wire"
)

// Result reports the outcome of one handshake attempt.
type Result struct {
	// Completed is true when the full 1-RTT handshake finished.
	Completed bool
	// SawRetry reports whether the server demanded address validation
	// — the paper's RETRY-deployment signal.
	SawRetry bool
	// SawVersionNegotiation reports a version-negotiation round.
	SawVersionNegotiation bool
	// Version is the final wire version.
	Version wire.Version
	// RTTs counts round trips consumed (retry adds one).
	RTTs int
	// Elapsed is the wall-clock handshake time.
	Elapsed time.Duration
}

// Config parameterizes Dial.
type Config struct {
	// Version to offer initially; defaults to v1.
	Version wire.Version
	// ServerName for SNI.
	ServerName string
	// Timeout per round trip; default 2 s.
	Timeout time.Duration
	// Retries per flight before giving up; default 2.
	Retries int
}

// Dial performs a handshake against addr over a fresh UDP socket.
func Dial(addr string, cfg Config) (*Result, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return DialConn(conn, cfg)
}

// DialConn performs a handshake over an established packet connection.
func DialConn(conn net.Conn, cfg Config) (*Result, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	client, err := handshake.NewClient(handshake.ClientConfig{
		Version:    cfg.Version,
		ServerName: cfg.ServerName,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	first, err := client.Start()
	if err != nil {
		return nil, err
	}

	res := &Result{RTTs: 1}
	pending := [][]byte{first}
	buf := make([]byte, 65535)

	for attempt := 0; attempt <= cfg.Retries && !client.Done(); attempt++ {
		for _, d := range pending {
			if _, err := conn.Write(d); err != nil {
				return nil, fmt.Errorf("quicclient: write: %w", err)
			}
		}
		deadline := time.Now().Add(cfg.Timeout)
		var next [][]byte
		for !client.Done() {
			if err := conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					break // retransmit the pending flight
				}
				return nil, fmt.Errorf("quicclient: read: %w", err)
			}
			retry, vn := client.SawRetry(), client.SawVersionNegotiation()
			out, err := client.HandleDatagram(append([]byte(nil), buf[:n]...))
			if err != nil {
				return nil, err
			}
			if len(out) > 0 {
				next = out
				for _, d := range out {
					if _, err := conn.Write(d); err != nil {
						return nil, err
					}
				}
				// Only the datagram that was the Retry or Version
				// Negotiation costs a round trip, not every later one.
				if client.SawRetry() != retry || client.SawVersionNegotiation() != vn {
					res.RTTs++
					deadline = time.Now().Add(cfg.Timeout)
				}
			}
		}
		if len(next) > 0 {
			pending = next
		}
	}

	res.Completed = client.Done()
	res.SawRetry = client.SawRetry()
	res.SawVersionNegotiation = client.SawVersionNegotiation()
	res.Version = client.Version()
	res.Elapsed = time.Since(start)
	if res.Completed {
		res.RTTs++ // the finished flight
	}
	return res, nil
}

// RecordInitials generates n independent client Initial datagrams (the
// 500 k-packet trace of the paper's benchmark methodology: record real
// client traffic, then replay only the Initials).
func RecordInitials(n int, version wire.Version, serverName string) ([][]byte, error) {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		c, err := handshake.NewClient(handshake.ClientConfig{Version: version, ServerName: serverName})
		if err != nil {
			return nil, err
		}
		d, err := c.Start()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
