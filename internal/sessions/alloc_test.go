package sessions

import (
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// TestObserveAllocsSinglePacketSession bounds the allocation cost of
// the dominant telescope session class: a source that appears once.
// With the inline accumulators (no eager maps, no per-minute map) and
// the Session held in its index entry, a whole tiny session costs only
// the amortized growth of the active index's slice and slots; the
// budget also covers the loop's own MustAddr.
func TestObserveAllocsSinglePacketSession(t *testing.T) {
	sz := NewSessionizer(nil)
	base := telescope.TS(telescope.MeasurementStart)
	next := uint32(0)
	// Warm up the active index and let lazy expiry reach steady state.
	for i := 0; i < 5000; i++ {
		sz.Observe(&telescope.Packet{
			TS: base + telescope.Timestamp(next)*10, Src: netmodel.Addr(0x0a000000 + next),
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 50000, DstPort: 443, Size: 1200,
		}, nil)
		next++
	}
	if avg := testing.AllocsPerRun(2000, func() {
		sz.Observe(&telescope.Packet{
			TS: base + telescope.Timestamp(next)*10, Src: netmodel.Addr(0x0a000000 + next),
			Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 50000, DstPort: 443, Size: 1200,
		}, nil)
		next++
	}); avg > 2 {
		t.Errorf("single-packet session costs %.2f allocs, budget 2 (MustAddr + index growth)", avg)
	}

	// Steady-state packets of one long-lived session allocate nothing.
	src := netmodel.Addr(0x0b000000)
	sz2 := NewSessionizer(nil)
	p := &telescope.Packet{
		TS: base, Src: src,
		Dst: netmodel.MustAddr("44.0.0.2"), SrcPort: 50000, DstPort: 443, Size: 1200,
	}
	for i := 0; i < 16; i++ {
		sz2.Observe(p, nil)
		p.TS += 10
	}
	if avg := testing.AllocsPerRun(1000, func() {
		sz2.Observe(p, nil)
		p.TS += 10
	}); avg > 0 {
		t.Errorf("steady-state Observe allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkObserveBudgetNewSources prices budget eviction under a
// spoofed flood: a full budget of 4096 sessions and every packet from a
// source never seen before, so every packet opens a session and evicts
// the coldest one. Eight packets share each millisecond.
func BenchmarkObserveBudgetNewSources(b *testing.B) {
	sz := NewSessionizer(nil)
	sz.MaxActive = 4096
	base := telescope.TS(telescope.MeasurementStart)
	p := &telescope.Packet{Dst: netmodel.MustAddr("44.0.0.1"), SrcPort: 50000, DstPort: 443, Size: 1200}
	next := uint32(0)
	observe := func() {
		p.TS = base + telescope.Timestamp(next/8)
		p.Src = netmodel.Addr(next * 0x9e3779b1) // a bijection: never a repeat
		next++
		sz.Observe(p, nil)
	}
	for sz.ActiveSessions() < sz.MaxActive {
		observe()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe()
	}
	if sz.Metrics.BudgetEvicted < uint64(b.N) {
		b.Fatalf("%d evictions over %d packets", sz.Metrics.BudgetEvicted, b.N)
	}
}
