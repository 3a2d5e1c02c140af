package quicsand

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench . -benchmem`). Each
// BenchmarkFigureN measures the analysis path that produces that
// figure over a shared generated month; BenchmarkPipeline measures the
// full generate-and-analyze cycle; BenchmarkTable1 sweeps the flood
// capacity model. Ablation benches cover the design choices DESIGN.md
// §6 lists.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"quicsand/internal/capture"
	"quicsand/internal/correlate"
	"quicsand/internal/dissect"
	"quicsand/internal/dosdetect"
	"quicsand/internal/flood"
	"quicsand/internal/handshake"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
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

// benchPipelineCfg is the shared configuration for the pipeline
// benchmarks: large enough that the streaming stages dominate the
// fixed scheduling cost, so worker scaling is visible.
func benchPipelineCfg(workers int) Config {
	return Config{Seed: 7, Scale: 0.01, ResearchThin: 1 << 20, Workers: workers}
}

// BenchmarkPipeline measures one complete generate→analyze cycle at a
// small scale (the §5.1 headline path) with the default worker count
// (all CPUs).
func BenchmarkPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := Run(benchPipelineCfg(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(a.QUICSessions) == 0 {
			b.Fatal("empty run")
		}
		b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
	}
}

// BenchmarkPipelineParallel sweeps the engine's worker count over the
// same month; workers=1 is the sequential baseline against which the
// multi-core speedup is measured (results are bit-identical across
// the sweep — TestWorkersBitIdentical).
func BenchmarkPipelineParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := Run(benchPipelineCfg(w))
				if err != nil {
					b.Fatal(err)
				}
				if len(a.QUICSessions) == 0 {
					b.Fatal("empty run")
				}
				b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
			}
		})
	}
}

var (
	replayOnce     sync.Once
	replayQSND     []byte
	replayPcap     []byte
	replayTraceErr error
)

// benchReplayTraces records the benchmark month once, in both
// containers, so the replay benchmarks measure pure ingestion.
func benchReplayTraces(b *testing.B) (qsnd, pcap []byte) {
	b.Helper()
	replayOnce.Do(func() {
		var buf bytes.Buffer
		w := telescope.NewWriter(&buf)
		cfg := benchPipelineCfg(0)
		cfg.Trace = w
		if _, err := Run(cfg); err != nil {
			replayTraceErr = err
			return
		}
		if err := w.Flush(); err != nil {
			replayTraceErr = err
			return
		}
		replayQSND = buf.Bytes()

		var pb bytes.Buffer
		src, err := capture.NewSource(bytes.NewReader(replayQSND))
		if err != nil {
			replayTraceErr = err
			return
		}
		sink := capture.NewSink(&pb, capture.FormatPcap)
		if _, err := capture.Copy(sink, src); err != nil {
			replayTraceErr = err
			return
		}
		if err := sink.Flush(); err != nil {
			replayTraceErr = err
			return
		}
		replayPcap = pb.Bytes()
	})
	if replayTraceErr != nil {
		b.Fatal(replayTraceErr)
	}
	return replayQSND, replayPcap
}

func benchReplay(b *testing.B, data []byte) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := capture.NewSource(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		a, err := Replay(benchPipelineCfg(0), src)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.QUICSessions) == 0 {
			b.Fatal("empty replay")
		}
		b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
	}
}

// BenchmarkReplay measures stored-month ingestion — decode, scatter to
// the sharded engine, full analysis — from the native checkpoint
// format on the production path: capture.OpenFile memory-maps the
// checkpoint, so framing is offset arithmetic and payloads alias the
// page cache (packets/s is the pipeline's wall-clock metric, MB/s the
// container read rate).
func BenchmarkReplay(b *testing.B) {
	qsnd, _ := benchReplayTraces(b)
	path := filepath.Join(b.TempDir(), "month.qsnd")
	if err := os.WriteFile(path, qsnd, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(qsnd)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		src, err := capture.OpenFile(f)
		if err != nil {
			b.Fatal(err)
		}
		a, err := Replay(benchPipelineCfg(0), src)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
		_ = f.Close()
		if len(a.QUICSessions) == 0 {
			b.Fatal("empty replay")
		}
		b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
	}
}

// BenchmarkReplayStream is native-checkpoint ingestion through the
// streamed decoder (no mmap — the path a pipe or socket replay takes).
func BenchmarkReplayStream(b *testing.B) {
	qsnd, _ := benchReplayTraces(b)
	benchReplay(b, qsnd)
}

// BenchmarkReplayPcap is the same ingestion through the pcap decode
// path (Ethernet decapsulation, IPv4/UDP parse, trailer fold-back).
func BenchmarkReplayPcap(b *testing.B) {
	_, pcap := benchReplayTraces(b)
	benchReplay(b, pcap)
}

// BenchmarkReplayIngest isolates stored-month decode — frame and parse
// every record of the checkpoint with no analysis pipeline behind it —
// so the ingest-path speedup is visible without the analysis floor
// that dominates the end-to-end replay benchmarks. "stream" is the
// io.Reader decoder (pipes, sockets); "mmap" is the capture.OpenFile
// zero-copy path.
func BenchmarkReplayIngest(b *testing.B) {
	qsnd, _ := benchReplayTraces(b)
	drain := func(b *testing.B, src capture.Source) int {
		n := 0
		for {
			if _, err := src.Next(); err != nil {
				if err == io.EOF {
					break
				}
				b.Fatal(err)
			}
			n++
		}
		if n == 0 {
			b.Fatal("empty capture")
		}
		return n
	}
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(qsnd)))
		total := 0
		for i := 0; i < b.N; i++ {
			src, err := capture.NewSource(bytes.NewReader(qsnd))
			if err != nil {
				b.Fatal(err)
			}
			total += drain(b, src)
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "packets/s")
	})
	b.Run("mmap", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "month.qsnd")
		if err := os.WriteFile(path, qsnd, 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(qsnd)))
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			src, err := capture.OpenFile(f)
			if err != nil {
				b.Fatal(err)
			}
			total += drain(b, src)
			if c, ok := src.(io.Closer); ok {
				_ = c.Close()
			}
			_ = f.Close()
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "packets/s")
	})
}

// BenchmarkScenario measures one complete generate→analyze cycle per
// built-in scenario (internal/scenario) at the BenchmarkPipeline
// scale: compilation resolves phases at setup, so throughput should
// track the paper month's for comparable packet mixes.
func BenchmarkScenario(b *testing.B) {
	for _, name := range scenario.Builtins() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchPipelineCfg(0)
				cfg.Scenario = sc
				a, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if a.Telescope.Total == 0 {
					b.Fatal("empty scenario run")
				}
				b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
			}
		})
	}
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
			org := a.Census.OrgOf(v)
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

// BenchmarkTable1Floods runs the scenario-parameterized Table 1 flood
// workloads: each flood-centric built-in generates and analyzes its
// month (research scanners skipped so flood handling dominates), with
// the detected Moore-threshold attack count reported alongside
// throughput and asserted against the analytic oracle's tolerance-free
// cap (internal/oracle).
func BenchmarkTable1Floods(b *testing.B) {
	for _, name := range []string{"handshake-flood-qfam", "retry-mitigated-flood", "multi-vector-burst"} {
		sc, err := scenario.Builtin(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchPipelineCfg(0)
			cfg.SkipResearch = true
			cfg.Scenario = sc
			exp, err := Expect(cfg)
			if err != nil {
				b.Fatal(err)
			}
			attackCap := exp.QUICAttackCap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				attacks := len(a.QUICDetector.Attacks)
				if attacks > attackCap {
					b.Fatalf("%d attacks exceed the oracle cap %d", attacks, attackCap)
				}
				b.ReportMetric(a.Pipeline.Throughput(), "packets/s")
				b.ReportMetric(float64(attacks), "attacks")
			}
		})
	}
}

// BenchmarkTable1 sweeps the paper's nine flood configurations.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := flood.Table1Rows(500000)
		if len(rows) != 9 {
			b.Fatal("bad row count")
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
	gen.Run(func(p *telescope.Packet) { pkts = append(pkts, p) })
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
	gen.Run(func(p *telescope.Packet) {
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
		gen.Run(func(*telescope.Packet) { n++ })
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
