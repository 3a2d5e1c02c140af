package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// LiveShard is one shard's bank of atomically-updated live counters.
// Unlike the plain Snapshot counters (single-writer, read only after
// the pipeline joins), these are read concurrently by the heartbeat
// and the /metrics endpoint while shards are still writing. Each bank
// is padded to its own cache line so shards never false-share.
type LiveShard struct {
	Packets atomic.Uint64
	Bytes   atomic.Uint64
	NonQUIC atomic.Uint64
	Alerts  atomic.Uint64
	_       [64 - 4*8]byte
}

// Live is a fixed set of per-shard live counter banks plus the run
// start time. It is created once before the pipeline starts; Shard
// hands each worker its own bank.
type Live struct {
	start  time.Time
	shards []LiveShard
}

// NewLive allocates live counter banks for n shards.
func NewLive(n int) *Live {
	return &Live{start: time.Now(), shards: make([]LiveShard, n)}
}

// Shard returns shard i's counter bank.
func (l *Live) Shard(i int) *LiveShard { return &l.shards[i] }

// ShardCounts returns the current per-shard packet counts.
func (l *Live) ShardCounts() []uint64 {
	_, counts := l.totals()
	return counts
}

// Progress is one heartbeat's view of a running pipeline.
type Progress struct {
	Packets       uint64  `json:"packets"`
	Bytes         uint64  `json:"bytes"`
	NonQUIC       uint64  `json:"non_quic"`
	Alerts        uint64  `json:"alerts"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	Skew          float64 `json:"skew"`
	HeapBytes     uint64  `json:"heap_bytes"`
	Goroutines    int     `json:"goroutines"`
}

// totals is the one summation of the shard banks: the four counter
// totals (as a Progress with no derived gauges yet) and the per-shard
// packet counts. The heartbeat and the /metrics handler both read it.
func (l *Live) totals() (Progress, []uint64) {
	var p Progress
	counts := make([]uint64, len(l.shards))
	for i := range l.shards {
		s := &l.shards[i]
		counts[i] = s.Packets.Load()
		p.Packets += counts[i]
		p.Bytes += s.Bytes.Load()
		p.NonQUIC += s.NonQUIC.Load()
		p.Alerts += s.Alerts.Load()
	}
	return p, counts
}

// Progress samples the live counters into a Progress, including
// process-level memory and goroutine gauges.
func (l *Live) Progress() Progress {
	p, counts := l.totals()
	if el := time.Since(l.start).Seconds(); el > 0 {
		p.PacketsPerSec = float64(p.Packets) / el
	}
	p.Skew = skew(counts)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.HeapBytes = ms.HeapAlloc
	p.Goroutines = runtime.NumGoroutine()
	return p
}

// String renders a Progress as one structured heartbeat log line.
func (p Progress) String() string {
	return fmt.Sprintf("progress packets=%d bytes=%d non_quic=%d alerts=%d rate=%.0f/s skew=%.2f heap=%dMiB goroutines=%d",
		p.Packets, p.Bytes, p.NonQUIC, p.Alerts, p.PacketsPerSec, p.Skew, p.HeapBytes>>20, p.Goroutines)
}

// Heartbeat periodically samples a Live bank, logs the progress line,
// and (if a Server is attached) refreshes its /metrics progress gauges.
// Stop is idempotent and waits for the ticker goroutine to exit, so a
// start/stop cycle leaves no goroutines behind.
type Heartbeat struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartHeartbeat launches a heartbeat ticking at the given interval.
// logf may be nil to disable logging; srv may be nil when no endpoint
// is being served.
func StartHeartbeat(live *Live, srv *Server, interval time.Duration, logf func(format string, args ...any)) *Heartbeat {
	h := &Heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				p := live.Progress()
				if srv != nil {
					srv.SetProgress(p)
				}
				if logf != nil {
					logf("%s", p)
				}
			}
		}
	}()
	return h
}

// Stop halts the heartbeat and waits for its goroutine to exit. A nil
// Heartbeat (progress logging off) has nothing to stop.
func (h *Heartbeat) Stop() {
	if h == nil {
		return
	}
	h.once.Do(func() { close(h.stop) })
	<-h.done
}
