package sessions_test

// An external test package: the consumer here is the TCP/ICMP detector,
// and dosdetect imports sessions.

import (
	"testing"
	"time"

	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
)

// TestSessionsAllocateNothing pins that a session is a value held in the
// sessionizer's own index entry: once the index has its size, sessions
// open and finish without a single allocation, lent to a detector that
// keeps none of them (a pipeline shard's TCP/ICMP wiring). Two streams:
// TCP backscatter from a new source on every packet, so that a 64-session
// budget evicts a session per packet, as under a spoofed-source flood;
// and one source whose bursts lie more than the timeout apart, so that
// each burst splits off a session. Each stream is measured over four
// runs of 4096 packets after a warm-up run.
func TestSessionsAllocateNothing(t *testing.T) {
	const n = 4096
	base := telescope.TS(telescope.MeasurementStart)
	victim := netmodel.MustAddr("93.184.216.34")
	gap := telescope.Timestamp((sessions.DefaultTimeout + time.Second).Milliseconds())
	for _, tc := range []struct {
		name      string
		maxActive int
		// next returns the i-th packet's source and time.
		next func(i uint32) (netmodel.Addr, telescope.Timestamp)
		// counter is the metric every session of the stream increments.
		counter func(*sessions.Sessionizer) uint64
	}{
		{"budget-evicted new sources", 64,
			func(i uint32) (netmodel.Addr, telescope.Timestamp) {
				return netmodel.Addr(i * 0x9e3779b1), base + telescope.Timestamp(i/8) // a bijection: never a repeat
			},
			func(sz *sessions.Sessionizer) uint64 { return sz.Metrics.BudgetEvicted }},
		{"one source split by gaps", 0,
			func(i uint32) (netmodel.Addr, telescope.Timestamp) {
				return victim, base + telescope.Timestamp(i/4)*gap + telescope.Timestamp(i%4)
			},
			func(sz *sessions.Sessionizer) uint64 { return sz.Metrics.TimeoutSplits }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			det := dosdetect.NewDetector(dosdetect.VectorCommon)
			det.DropExcluded = true
			sz := sessions.NewSessionizer(nil)
			sz.Emit = det.Offer
			sz.MaxActive = tc.maxActive
			p := &telescope.Packet{Proto: telescope.ProtoTCP, SrcPort: 80, Size: 60}
			i := uint32(0)
			run := func() {
				for range n {
					p.Src, p.TS = tc.next(i)
					p.Dst, p.DstPort = netmodel.TelescopePrefix.Nth(uint64(i*7919)), uint16(1024+i%60000)
					i++
					sz.Observe(p, nil)
				}
			}
			run() // the index reaches its size
			before := tc.counter(sz)
			if allocs := testing.AllocsPerRun(4, run); allocs != 0 {
				t.Errorf("%.0f allocations per %d packets, want 0", allocs, n)
			}
			// AllocsPerRun's warm-up call is a fifth run.
			if got := tc.counter(sz) - before; got < 5*n/4 {
				t.Fatalf("%d sessions finished over %d packets: the stream does not open and finish sessions", got, 5*n)
			}
			if det.Inspected == 0 || len(det.Attacks) != 0 {
				t.Fatalf("detector inspected %d sessions and found %d attacks, want some and none", det.Inspected, len(det.Attacks))
			}
		})
	}
}
