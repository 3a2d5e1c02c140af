package flood

import (
	"math"
	"net"
	"testing"
	"time"

	"quicsand/internal/quicserver"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

func TestModelLowRateFullAvailability(t *testing.T) {
	// 10 pps on 4 workers: far below the ≈68 pps capacity.
	r := RunModel(ModelConfig{Workers: 4}, 3001, 10)
	if r.Availability < 0.999 {
		t.Fatalf("availability = %.3f, want 1.0", r.Availability)
	}
	if r.ServerResps != r.Answered*ResponsesPerHandshake {
		t.Errorf("resps = %d", r.ServerResps)
	}
	if r.ExtraRTT {
		t.Error("extra RTT without retry")
	}
}

func TestModelOverloadKnee(t *testing.T) {
	// The paper's collapse: 100 pps → ≈68 %, 1000 pps → ≈7 % with 4
	// workers.
	r100 := RunModel(ModelConfig{Workers: 4}, 30001, 100)
	if r100.Availability < 0.55 || r100.Availability > 0.85 {
		t.Errorf("100 pps availability = %.2f, want ≈0.68", r100.Availability)
	}
	r1000 := RunModel(ModelConfig{Workers: 4}, 300001, 1000)
	if r1000.Availability < 0.04 || r1000.Availability > 0.12 {
		t.Errorf("1000 pps availability = %.3f, want ≈0.07", r1000.Availability)
	}
	if r1000.Availability >= r100.Availability {
		t.Error("availability should fall with rate")
	}
}

func TestModelWorkerScaling(t *testing.T) {
	// 128 workers absorb 1000 pps (paper row 4).
	r := RunModel(ModelConfig{Workers: 128}, 300001, 1000)
	if r.Availability < 0.999 {
		t.Errorf("availability = %.3f, want 1.0", r.Availability)
	}
	// …but 10,000 pps exhausts even 128 workers (paper: 26 %).
	r10k := RunModel(ModelConfig{Workers: 128}, 500000, 10000)
	if r10k.Availability < 0.15 || r10k.Availability > 0.40 {
		t.Errorf("10k pps availability = %.3f, want ≈0.26", r10k.Availability)
	}
}

func TestModelRetryRestoresService(t *testing.T) {
	// Table 1's retry rows: 100 % at every rate with only 4 workers.
	for _, pps := range []int{1000, 10000, 100000} {
		n := pps * 30
		r := RunModel(ModelConfig{Workers: 4, Retry: true}, n, pps)
		if r.Availability < 0.999 {
			t.Errorf("%d pps with retry: availability %.3f", pps, r.Availability)
		}
		if !r.ExtraRTT {
			t.Error("retry must cost an extra RTT")
		}
		if r.ServerResps != r.Answered {
			t.Errorf("retry resps = %d, want one per request", r.ServerResps)
		}
	}
}

func TestTable1RowsShape(t *testing.T) {
	rows := Table1Rows(500000)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper shape: availability ordering across the no-retry rows.
	avail := func(i int) float64 { return rows[i].Availability }
	if !(avail(0) > 0.99) {
		t.Errorf("row 0 = %.2f", avail(0))
	}
	if !(avail(1) < avail(0) && avail(2) < avail(1)) {
		t.Errorf("4-worker collapse broken: %.2f %.2f %.2f", avail(0), avail(1), avail(2))
	}
	if !(avail(3) > 0.99) {
		t.Errorf("128 workers at 1000 pps = %.2f", avail(3))
	}
	if !(avail(4) < 0.5) {
		t.Errorf("128 workers at 10k pps = %.2f", avail(4))
	}
	for i := 6; i <= 8; i++ {
		if avail(i) < 0.999 {
			t.Errorf("retry row %d = %.2f", i, avail(i))
		}
	}
	// Request counts follow the paper's rate×300 s cap at 500 k.
	if rows[0].ClientReqs != 3001 || rows[2].ClientReqs != 300001 || rows[4].ClientReqs != 500000 {
		t.Errorf("request counts: %d %d %d", rows[0].ClientReqs, rows[2].ClientReqs, rows[4].ClientReqs)
	}
	out := FormatTable(rows)
	if len(out) == 0 {
		t.Error("empty table")
	}
}

func TestModelDeterminism(t *testing.T) {
	a := RunModel(ModelConfig{Workers: 4}, 30001, 100)
	b := RunModel(ModelConfig{Workers: 4}, 30001, 100)
	if a.Answered != b.Answered || a.Availability != b.Availability {
		t.Error("model not deterministic")
	}
}

func TestExtrapolateRate(t *testing.T) {
	// The paper: 27 pps at a /9 ⇒ ≈13,824 pps Internet-wide.
	if got := ExtrapolateRate(27); math.Abs(got-13824) > 1e-9 {
		t.Errorf("extrapolate = %f", got)
	}
}

func TestRecordTraceShape(t *testing.T) {
	trace, err := RecordTrace(5, wire.Version1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 5 {
		t.Fatalf("trace = %d", len(trace))
	}
	for _, d := range trace {
		h, err := wire.ParseLongHeader(d)
		if err != nil || h.Type != wire.PacketTypeInitial {
			t.Fatalf("trace entry: %v", err)
		}
		if len(d) < 1200 {
			t.Fatalf("initial %d bytes", len(d))
		}
	}
}

// TestSendRejectsBadInput pins Send's contract at its edges: a rate that
// is not positive is an error (it used to be a divide by zero in
// RunLive), and an empty trace sends nothing.
func TestSendRejectsBadInput(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	trace := [][]byte{make([]byte, 1200)}
	for _, tc := range []struct {
		name    string
		rate    int
		trace   [][]byte
		wantErr bool
	}{
		{"zero rate", 0, trace, true},
		{"negative rate", -5, trace, true},
		{"empty trace", 100, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sent, err := Send(pc, pc.LocalAddr(), tc.rate, tc.trace)
			if (err != nil) != tc.wantErr || sent != 0 {
				t.Errorf("Send = %d, %v; want 0 sent, error %v", sent, err, tc.wantErr)
			}
		})
	}
	if _, err := RunLive(LiveConfig{Target: pc.LocalAddr().String(), Trace: trace}); err == nil {
		t.Error("RunLive at rate 0 returned no error")
	}
}

func TestRunLiveAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	id, err := tlsmini.GenerateSelfSigned("flood.test", 400)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := quicserver.New(pc, quicserver.Config{Identity: id, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	trace, err := RecordTrace(50, wire.Version1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(LiveConfig{
		Target: srv.Addr().String(), RatePPS: 200, Trace: trace,
		Collect: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 50 {
		t.Errorf("sent = %d", res.Sent)
	}
	// Each accepted Initial elicits ≥2 response datagrams.
	if res.Responses < 50 {
		t.Errorf("responses = %d, want ≥50", res.Responses)
	}
	if res.RetryResponses != 0 {
		t.Errorf("unexpected retries: %d", res.RetryResponses)
	}

	// With RETRY enabled every replayed Initial gets exactly one Retry
	// and no state is created.
	pc2, _ := net.ListenPacket("udp", "127.0.0.1:0")
	srv2, err := quicserver.New(pc2, quicserver.Config{Identity: id, Workers: 2, EnableRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	res2, err := RunLive(LiveConfig{
		Target: srv2.Addr().String(), RatePPS: 200, Trace: trace,
		Collect: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RetryResponses == 0 {
		t.Error("no retries under retry mode")
	}
	if got := srv2.Metrics.Accepted.Load(); got != 0 {
		t.Errorf("retry server allocated %d connections for unvalidated floods", got)
	}
}
