// Command floodbench reproduces Table 1: service availability of a
// QUIC web server under Initial floods at increasing packet rates,
// with and without RETRY.
//
// The default mode runs the calibrated capacity model across the
// paper's nine configurations. With -live it additionally records a
// real Initial trace, replays it against a real UDP server on loopback
// at a modest rate, once with RETRY off and once with it on, and after
// each flood dials one legitimate client: it completes against both
// servers, paying one more round trip when RETRY validates its address.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"quicsand/internal/flood"
	"quicsand/internal/quicclient"
	"quicsand/internal/quicserver"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "floodbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("floodbench", flag.ContinueOnError)
	traceLen := fs.Int("trace", 500000, "recorded trace length (paper: 500,000)")
	live := fs.Bool("live", false, "also replay against a real UDP server on loopback")
	livePPS := fs.Int("live-pps", 500, "replay rate for -live")
	liveN := fs.Int("live-n", 300, "trace length for -live")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "Table 1: NGINX-style QUIC server under Initial floods (capacity model)")
	fmt.Fprintln(stdout, flood.FormatTable(flood.Table1Rows(*traceLen)))
	fmt.Fprintf(stdout, "calibration: %.0f ms/handshake, %.0f µs/retry, %d response datagrams per served Initial\n",
		flood.HandshakeCost.Seconds()*1000, flood.RetryCost.Seconds()*1e6, flood.ResponsesPerHandshake)
	fmt.Fprintf(stdout, "paper's extrapolation: 27 pps at the /9 telescope ⇒ ≈%.0f pps Internet-wide\n\n", flood.ExtrapolateRate(27))

	if !*live {
		return nil
	}
	fmt.Fprintf(stdout, "live replay: %d Initials at %d pps against a real server, then one legitimate client\n", *liveN, *livePPS)
	id, err := tlsmini.GenerateSelfSigned("bench.quicsand.test", 600)
	if err != nil {
		return err
	}
	trace, err := flood.RecordTrace(*liveN, wire.Version1)
	if err != nil {
		return err
	}
	for _, retry := range []bool{false, true} {
		if err := liveRow(stdout, id, trace, *livePPS, retry); err != nil {
			return err
		}
	}
	return nil
}

// liveRow floods one loopback server and then dials it as a legitimate
// client would.
func liveRow(stdout io.Writer, id *tlsmini.Identity, trace [][]byte, pps int, retry bool) error {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := quicserver.New(pc, quicserver.Config{Identity: id, Workers: 2, EnableRetry: retry})
	if err != nil {
		pc.Close()
		return err
	}
	defer srv.Close()
	res, err := flood.RunLive(flood.LiveConfig{
		Target: srv.Addr().String(), RatePPS: pps, Trace: trace,
		Collect: time.Second,
	})
	if err != nil {
		return err
	}
	accepted := srv.Metrics.Accepted.Load() // the flood's, before the client adds one
	legit := "FAILED"
	dial, err := quicclient.Dial(srv.Addr().String(), quicclient.Config{ServerName: "bench.quicsand.test"})
	if err == nil && dial.Completed {
		legit = fmt.Sprintf("completed in %d RTTs", dial.RTTs)
	}
	fmt.Fprintf(stdout, "retry=%-5v sent=%d responses=%d retries=%d accepted-conns=%d elapsed=%v  legit client: %s\n",
		retry, res.Sent, res.Responses, res.RetryResponses,
		accepted, res.Elapsed.Round(time.Millisecond), legit)
	return nil
}
