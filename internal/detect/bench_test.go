package detect

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// benchPackets builds a round-robin packet schedule over n sources,
// one packet per millisecond — dense enough that every source's rate
// episode opens during warmup and then only extends, which is the
// daemon's steady state.
func benchPackets(n int) []*telescope.Packet {
	pkts := make([]*telescope.Packet, 4096)
	for i := range pkts {
		pkts[i] = &telescope.Packet{
			Src:     netmodel.Addr(0x0a000000 + uint32(i%n)),
			Dst:     netmodel.TelescopePrefix.Base,
			SrcPort: 40000, DstPort: 443,
			Proto: telescope.ProtoUDP, Size: 1200,
		}
	}
	return pkts
}

// BenchmarkStreamingDetect measures the detector bank's per-packet
// cost on the daemon steady state: every source resident, episodes
// open and extending, no churn. This is the hot path a live telescope
// pays per captured QUIC packet on top of sessionization.
func BenchmarkStreamingDetect(b *testing.B) {
	d := NewShard(Default())
	pkts := benchPackets(64)
	// Warm up: give every source window state and an open episode.
	for i, p := range pkts {
		p.TS = telescope.Timestamp(i)
		d.Observe(p, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		p.TS = telescope.Timestamp(len(pkts) + i)
		d.Observe(p, nil)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "packets/s")
}

// BenchmarkObserveNewSources prices the detector under the paper's
// spoofed-source load, as sessions.BenchmarkObserveBudgetNewSources does
// the sessionizer's: every packet from a source never seen before, eight
// to a millisecond. Unbounded, each new source keeps its window state
// for one window (60 s, 480 000 sources, longer than any -benchtime CI
// runs); under MaxSources (filled before the timer starts) every packet
// evicts the coldest source. It reports the heap retained per new
// source (B/source) and the sources holding state at the end.
func BenchmarkObserveNewSources(b *testing.B) {
	for _, budget := range []int{0, 1024, 4096} {
		name := "unbounded"
		if budget > 0 {
			name = fmt.Sprintf("max-sources=%d", budget)
		}
		b.Run(name, func(b *testing.B) {
			d := NewShard(Default())
			d.MaxSources = budget
			base := telescope.TS(telescope.MeasurementStart)
			p := &telescope.Packet{
				Dst: netmodel.TelescopePrefix.Base, SrcPort: 50000, DstPort: 443,
				Proto: telescope.ProtoUDP, Size: 1200,
			}
			next := uint32(0)
			observe := func() {
				p.TS = base + telescope.Timestamp(next/8)
				p.Src = netmodel.Addr(next * 0x9e3779b1) // a bijection: never a repeat
				next++
				d.Observe(p, nil)
			}
			for d.Sources() < budget {
				observe()
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe()
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "B/source")
			b.ReportMetric(float64(d.Sources()), "sources")
			if budget > 0 && d.Metrics.SourcesEvicted < uint64(b.N) {
				b.Fatalf("%d evictions over %d packets", d.Metrics.SourcesEvicted, b.N)
			}
		})
	}
}

// TestStreamingDetectZeroAllocSteadyState is the allocation gate on
// the same steady state: once a source's window state and episode
// exist, Observe must not allocate — the daemon's per-packet cost is
// pointer chasing and ring arithmetic, never garbage.
func TestStreamingDetectZeroAllocSteadyState(t *testing.T) {
	d := NewShard(Default())
	pkts := benchPackets(64)
	for i, p := range pkts {
		p.TS = telescope.Timestamp(i)
		d.Observe(p, nil)
	}
	ts := telescope.Timestamp(len(pkts))
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		p := pkts[i%len(pkts)]
		p.TS = ts
		d.Observe(p, nil)
		i++
		ts++
	})
	if avg != 0 {
		t.Fatalf("steady-state Observe allocates %.2f times per packet, want 0", avg)
	}
	if d.Metrics.AlertsOpened == 0 {
		t.Fatal("steady state never opened an episode; the gate ran on a cold path")
	}
}

// TestStreamingDetectWindowRollZeroAlloc extends the gate across
// bucket boundaries: rolling the ring forward (including across a gap
// of several buckets) reuses the fixed bucket array in place.
func TestStreamingDetectWindowRollZeroAlloc(t *testing.T) {
	cfg := Default()
	cfg.Window = 600 * time.Millisecond
	d := NewShard(cfg)
	src := netmodel.Addr(0x0a000001)
	p := &telescope.Packet{Src: src, Dst: netmodel.TelescopePrefix.Base,
		SrcPort: 40000, DstPort: 443, Proto: telescope.ProtoUDP, Size: 1200}
	p.TS = 0
	d.Observe(p, nil)
	ts := telescope.Timestamp(1)
	avg := testing.AllocsPerRun(2000, func() {
		p.TS = ts
		d.Observe(p, nil)
		ts += 150 // crosses a 100 ms bucket boundary most calls
	})
	if avg != 0 {
		t.Fatalf("ring roll allocates %.2f times per packet, want 0", avg)
	}
}
