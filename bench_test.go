package quicsand

// The benchmark harness regenerates every figure of the paper's
// evaluation (run with `go test -bench . -benchmem`). Each
// BenchmarkFigureN measures the analysis path that produces that
// figure over a shared generated month. Ablation benches cover the
// design choices DESIGN.md §6 lists. End-to-end pipeline, replay and streaming
// throughput is the repository benchmark's job (bench/, BENCHMARK.json).

import (
	"sync"
	"testing"
	"time"

	"quicsand/internal/correlate"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/handshake"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

var (
	benchOnce     sync.Once
	benchAnalysis *Analysis
)

func benchPipeline(b *testing.B) *Analysis {
	b.Helper()
	benchOnce.Do(func() {
		a, err := Run(Config{Seed: 7, Scale: 0.02, ResearchThin: 16384})
		if err != nil {
			b.Fatal(err)
		}
		benchAnalysis = a
	})
	return benchAnalysis
}

func BenchmarkFigure2(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure2()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure3()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The sweep computation itself plus rendering.
		for m := 1; m <= 60; m++ {
			_ = a.Sweep.Sessions(m)
		}
		if len(a.Figure4()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.TypeMatrix()
		if len(m) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := dosdetect.VictimCounts(a.QUICDetector.Attacks)
		if len(counts) == 0 {
			b.Fatal("no victims")
		}
		_ = a.Figure6()
	}
}

func BenchmarkFigure7(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure7()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-run the correlation (the figure's analysis content).
		s := correlate.Correlate(a.QUICDetector.Sorted(), a.CommonDetector.Sorted())
		if len(s.Results) == 0 {
			b.Fatal("no correlation results")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure9()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	a := benchPipeline(b)
	weights := []float64{0.2, 0.5, 1, 2, 4, 6, 8, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, _ := dosdetect.WeightSweep(a.ResponseSessions, weights, func(v netmodel.Addr) bool {
			org := a.OrgOf(v)
			return org == "Google" || org == "Facebook"
		})
		if counts[2] == 0 {
			b.Fatal("no attacks at w=1")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure11()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure12()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	a := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Figure13()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §6)

// BenchmarkAblationDissectDepth compares port-based classification
// against full payload validation — the cost of the paper's
// false-positive filter.
func BenchmarkAblationDissectDepth(b *testing.B) {
	client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "bench.test"})
	if err != nil {
		b.Fatal(err)
	}
	initial, err := client.Start()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("port-only", func(b *testing.B) {
		d := &dissect.Dissector{TryDecrypt: false}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Dissect(initial); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-validation", func(b *testing.B) {
		d := dissect.NewDissector()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Dissect(initial); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTelescopeSize measures how shrinking the telescope
// ( /9 → /12 → /16 ) thins the observable backscatter — the
// sampling-sensitivity question behind the ×512 extrapolation.
func BenchmarkAblationTelescopeSize(b *testing.B) {
	gen, err := ibr.New(ibr.Config{Seed: 3, Scale: 0.005, SkipResearch: true})
	if err != nil {
		b.Fatal(err)
	}
	var pkts []*telescope.Packet
	gen.Feeds(1, false)[0].Run(func(p *telescope.Packet) { pkts = append(pkts, p) })
	for _, bits := range []int{9, 12, 16} {
		prefix := netmodel.Prefix{Base: netmodel.TelescopePrefix.Base, Bits: bits}
		b.Run(prefix.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seen := 0
				for _, p := range pkts {
					if prefix.Contains(p.Dst) {
						seen++
					}
				}
				if bits == 9 && seen != len(pkts) {
					b.Fatal("the /9 must see everything")
				}
			}
		})
	}
}

// BenchmarkAblationTimeout compares sessionization at the paper's
// 5-minute knee against the 1- and 60-minute extremes.
func BenchmarkAblationTimeout(b *testing.B) {
	gen, err := ibr.New(ibr.Config{Seed: 5, Scale: 0.005, SkipResearch: true})
	if err != nil {
		b.Fatal(err)
	}
	var pkts []*telescope.Packet
	gen.Feeds(1, false)[0].Run(func(p *telescope.Packet) {
		if p.IsQUICCandidate() {
			pkts = append(pkts, p)
		}
	})
	for _, timeout := range []int{1, 5, 60} {
		b.Run(map[int]string{1: "1min", 5: "5min", 60: "60min"}[timeout], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sz := sessions.NewSessionizer(nil)
				sz.Timeout = timeDuration(timeout)
				for _, p := range pkts {
					sz.Observe(p, nil)
				}
				sz.Flush()
				if sz.Emitted == 0 {
					b.Fatal("no sessions")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func BenchmarkWireParseInitial(b *testing.B) {
	client, _ := handshake.NewClient(handshake.ClientConfig{})
	initial, _ := client.Start()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.ParseLongHeader(initial); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandshakeFull(b *testing.B) {
	id := benchIdentity(b)
	for i := 0; i < b.N; i++ {
		client, err := handshake.NewClient(handshake.ClientConfig{ServerName: "bench.test"})
		if err != nil {
			b.Fatal(err)
		}
		first, err := client.Start()
		if err != nil {
			b.Fatal(err)
		}
		h, _ := wire.ParseLongHeader(first)
		server, err := handshake.NewServerConn(handshake.ServerConfig{Identity: id}, wire.Version1, h.DstConnID, h.SrcConnID)
		if err != nil {
			b.Fatal(err)
		}
		toServer := [][]byte{first}
		for r := 0; r < 4 && !client.Done(); r++ {
			var toClient [][]byte
			for _, d := range toServer {
				out, err := server.HandleDatagram(d)
				if err != nil {
					b.Fatal(err)
				}
				toClient = append(toClient, out...)
			}
			toServer = nil
			for _, d := range toClient {
				out, err := client.HandleDatagram(d)
				if err != nil {
					b.Fatal(err)
				}
				toServer = append(toServer, out...)
			}
		}
		if !client.Done() {
			b.Fatal("handshake incomplete")
		}
	}
}

func BenchmarkGeneratorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen, err := ibr.New(ibr.Config{Seed: 11, Scale: 0.002, SkipResearch: true})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		gen.Feeds(1, false)[0].Run(func(*telescope.Packet) { n++ })
		b.ReportMetric(float64(n), "packets/op")
	}
}

// helpers

var (
	benchIdentityOnce sync.Once
	benchIdentityVal  *tlsmini.Identity
)

func benchIdentity(b *testing.B) *tlsmini.Identity {
	b.Helper()
	benchIdentityOnce.Do(func() {
		id, err := tlsmini.GenerateSelfSigned("bench.test", 600)
		if err != nil {
			b.Fatal(err)
		}
		benchIdentityVal = id
	})
	return benchIdentityVal
}

func timeDuration(minutes int) time.Duration {
	return time.Duration(minutes) * time.Minute
}
