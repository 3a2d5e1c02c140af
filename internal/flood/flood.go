// Package flood implements the Table 1 benchmark: replaying recorded
// client Initial datagrams at configurable packet rates against a QUIC
// web server and measuring service availability.
//
// Two execution modes cover the paper's experiment:
//
//   - Model: a deterministic fluid-queue capacity model of the NGINX
//     worker pool, calibrated to the paper's observed per-worker
//     service rate (≈17 handshakes/s/worker, i.e. ≈59 ms per
//     handshake including crypto and state setup). It reproduces the
//     full 10–100,000 pps sweep instantly and deterministically.
//   - Live: replay against the real UDP server of internal/quicserver
//     at low rates (floodbench -live; Send from a caller's socket makes
//     the server's replies reach that socket's reader, as in
//     telescoped's backscatter chain test). Absolute throughput
//     depends on the host.
//
// The paper's methodology is mirrored: the trace is recorded with a
// real QUIC client and only client Initials are replayed ("replaying
// avoids bias from hand-crafting QUIC packets").
package flood

import (
	"fmt"
	"math"
	"time"
)

// Calibration constants for the capacity model (see EXPERIMENTS.md).
const (
	// HandshakeCost is the modelled per-Initial service time without
	// address validation: one ECDHE exchange, one certificate
	// signature, connection-state setup. Calibrated so 4 workers
	// answer ≈68 pps, matching Table 1's 68 % availability at 100 pps.
	HandshakeCost = 59 * time.Millisecond
	// RetryCost is the stateless path: one HMAC over the client
	// address, no state.
	RetryCost = 30 * time.Microsecond
	// ResponsesPerHandshake is the datagram count a served Initial
	// elicits (Initial+Handshake, Handshake, plus two keep-alive
	// PINGs — Table 1's ×4 accounting).
	ResponsesPerHandshake = 4
	// DrainTime is how long after the replay ends completions still
	// count, mirroring the paper's response-collection window.
	DrainTime = 10 * time.Second
)

// ModelConfig describes one Table 1 row's server configuration.
type ModelConfig struct {
	Workers        int
	QueuePerWorker int  // default 1024
	Retry          bool // RETRY address validation on
}

// Result is one benchmark outcome.
type Result struct {
	RatePPS       int
	Retry         bool
	Workers       int
	ClientReqs    int
	ServerResps   int
	Answered      int
	Availability  float64 // fraction of requests answered
	ExtraRTT      bool
	DroppedQueue  int
	ModelDuration time.Duration // replay duration (virtual in model mode)
}

// RunModel replays nRequests Initials at ratePPS against the fluid
// capacity model and returns the Table 1 row.
func RunModel(cfg ModelConfig, nRequests, ratePPS int) *Result {
	if cfg.QueuePerWorker == 0 {
		cfg.QueuePerWorker = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	cost := HandshakeCost.Seconds()
	if cfg.Retry {
		cost = RetryCost.Seconds()
	}
	queueCap := float64(cfg.QueuePerWorker) * cost // backlog bound in work-seconds

	// Per-worker fluid queues; arrivals round-robin across workers
	// (spoofed sources hash uniformly).
	backlog := make([]float64, cfg.Workers)
	lastT := make([]float64, cfg.Workers)
	answered, dropped := 0, 0
	interval := 1.0 / float64(ratePPS)
	var completions []float64 // completion time per accepted request

	for i := 0; i < nRequests; i++ {
		t := float64(i) * interval
		w := i % cfg.Workers
		// Drain the backlog for elapsed time.
		backlog[w] = math.Max(0, backlog[w]-(t-lastT[w]))
		lastT[w] = t
		if backlog[w]+cost > queueCap {
			dropped++
			continue
		}
		backlog[w] += cost
		completions = append(completions, t+backlog[w])
	}
	runT := float64(nRequests) * interval
	deadline := runT + DrainTime.Seconds()
	for _, ct := range completions {
		if ct <= deadline {
			answered++
		}
	}

	resps := answered * ResponsesPerHandshake
	if cfg.Retry {
		// Stateless validation answers every request with exactly one
		// Retry datagram; the paper's retry rows show resp == req.
		resps = answered
	}
	return &Result{
		RatePPS:       ratePPS,
		Retry:         cfg.Retry,
		Workers:       cfg.Workers,
		ClientReqs:    nRequests,
		ServerResps:   resps,
		Answered:      answered,
		Availability:  float64(answered) / float64(nRequests),
		ExtraRTT:      cfg.Retry,
		DroppedQueue:  dropped,
		ModelDuration: time.Duration(runT * float64(time.Second)),
	}
}

// Table1Rows reproduces the paper's nine configurations. traceLen is
// the recorded trace length (the paper used 500,000 packets); rows cap
// their request count at min(rate·300 s + 1, traceLen) exactly as the
// paper's client counts suggest.
func Table1Rows(traceLen int) []*Result {
	type row struct {
		pps     int
		retry   bool
		workers int
	}
	rows := []row{
		{10, false, 4},
		{100, false, 4},
		{1000, false, 4},
		{1000, false, 128},
		{10000, false, 128},
		{100000, false, 128},
		{1000, true, 4},
		{10000, true, 4},
		{100000, true, 4},
	}
	var out []*Result
	for _, r := range rows {
		n := r.pps*300 + 1
		if n > traceLen {
			n = traceLen
		}
		out = append(out, RunModel(ModelConfig{Workers: r.workers, Retry: r.retry}, n, r.pps))
	}
	return out
}

// FormatTable renders results in the paper's Table 1 layout.
func FormatTable(results []*Result) string {
	out := "Attack        NGINX Config                Results\n"
	out += fmt.Sprintf("%-10s %-6s %-9s %-11s %-12s %-10s %-8s\n",
		"Vol [pps]", "Retry", "Workers", "Client[#Req]", "Server[#Resp]", "Avail", "ExtraRTT")
	for _, r := range results {
		retry, rtt := "no", "no"
		if r.Retry {
			retry, rtt = "yes", "yes"
		}
		out += fmt.Sprintf("%-10d %-6s %-9d %-11d %-12d %-10s %-8s\n",
			r.RatePPS, retry, r.Workers, r.ClientReqs, r.ServerResps,
			fmt.Sprintf("%.0f%%", r.Availability*100), rtt)
	}
	return out
}

// ExtrapolateRate converts an observed telescope max-pps into the
// Internet-wide attack rate estimate the paper derives (×512 for a /9
// telescope).
func ExtrapolateRate(telescopeMaxPPS float64) float64 {
	return telescopeMaxPPS * 512
}
