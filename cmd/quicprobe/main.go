// Command quicprobe performs the paper's §6 active measurement: it
// connects to QUIC servers and reports whether they demand RETRY
// address validation. The paper probed the ten most-attacked Google
// and Facebook servers and found RETRY universally disabled.
//
// Usage:
//
//	quicprobe host:port [host:port ...]   probe the given servers
//	quicprobe -demo                       probe two local servers
//	                                      (RETRY off and on)
//
// -version and -timeout apply in both modes, so -demo -version V shows a
// full handshake at any version the server speaks (v1, draft-29 =
// 0xff00001d, mvfst-draft-27 = 0xfaceb002).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"quicsand/internal/quicclient"
	"quicsand/internal/quicserver"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quicprobe:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("quicprobe", flag.ContinueOnError)
	demo := fs.Bool("demo", false, "spin up local servers with RETRY off/on and probe them")
	sni := fs.String("sni", "probe.quicsand.test", "server name to offer")
	version := fs.Uint("version", uint(wire.Version1), "wire version to offer")
	timeout := fs.Duration("timeout", 2*time.Second, "per-RTT timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := wire.Version(*version)

	if *demo {
		return runDemo(stdout, *sni, v, *timeout)
	}
	if fs.NArg() == 0 {
		return errors.New("usage: quicprobe [-demo] [-version V] [-timeout D] host:port ...")
	}
	for _, target := range fs.Args() {
		probe(stdout, target, *sni, v, *timeout)
	}
	return nil
}

func probe(stdout io.Writer, target, sni string, v wire.Version, timeout time.Duration) {
	res, err := quicclient.Dial(target, quicclient.Config{
		Version: v, ServerName: sni, Timeout: timeout,
	})
	if err != nil {
		fmt.Fprintf(stdout, "%-28s error: %v\n", target, err)
		return
	}
	retry := "RETRY NOT DEPLOYED"
	if res.SawRetry {
		retry = "RETRY deployed (+1 RTT)"
	}
	fmt.Fprintf(stdout, "%-28s completed=%-5v version=%-14s rtts=%d  %s\n",
		target, res.Completed, res.Version, res.RTTs, retry)
}

func runDemo(stdout io.Writer, sni string, v wire.Version, timeout time.Duration) error {
	id, err := tlsmini.GenerateSelfSigned(sni, 600)
	if err != nil {
		return err
	}
	for _, retry := range []bool{false, true} {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err := quicserver.New(pc, quicserver.Config{Identity: id, Workers: 2, EnableRetry: retry})
		if err != nil {
			pc.Close()
			return err
		}
		fmt.Fprintf(stdout, "local server (retry=%v):\n  ", retry)
		probe(stdout, srv.Addr().String(), sni, v, timeout)
		// The client returns once its last flight is sent; give the
		// server's worker until the timeout to count the handshake.
		for deadline := time.Now().Add(timeout); srv.Metrics.Handshakes.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		fmt.Fprintf(stdout, "  server: initials=%d handshakes=%d responses=%d\n",
			srv.Metrics.Initials.Load(), srv.Metrics.Handshakes.Load(), srv.Metrics.Responses.Load())
		srv.Close()
	}
	fmt.Fprintln(stdout, "\nThe paper's observation: production Google/Facebook servers behave")
	fmt.Fprintln(stdout, "like the first case — no RETRY, trading robustness for one RTT.")
	return nil
}
