package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is what one timed repetition costs: wall and process CPU time
// of the entry-point call, allocation deltas across it, and the heap
// still live after a forced collection while the result is held.
type sample struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	retained float64 // bytes; HeapAlloc after GC minus the pre-run baseline
	pkts     uint64  // captured packets
}

// cpuTime is the process's user+system CPU time. It counts every
// thread, so parallel waste and background GC show here even when the
// wall clock hides them.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPU is the calling OS thread's CPU time. Between
// runtime.LockOSThread and UnlockOSThread it is the calling
// goroutine's own CPU: time blocked on a channel and work done by
// other goroutines are both excluded.
func threadCPU() time.Duration { return rusage(syscall.RUSAGE_THREAD) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF/RUSAGE_THREAD on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs reads the cumulative allocation counters (stops the world;
// call only outside timed brackets).
func mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measured runs one repetition of the workload between a forced
// collection (so every repetition starts from the same heap) and a
// second one taken while the outcome is still referenced, then passes
// the outcome through the correctness gate, outside the timed region.
func (w *workload) measured(workers int) (sample, *outcome, error) {
	base := heapLive()
	m0, b0 := mallocs()
	c0 := cpuTime()
	t0 := time.Now()
	out, pkts, err := w.run(workers)
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0, pkts: pkts}
	m1, b1 := mallocs()
	s.mallocs, s.bytes = m1-m0, b1-b0
	s.retained = float64(heapLive()) - float64(base)
	runtime.KeepAlive(out)
	if err == nil {
		err = w.verify(out)
	}
	return s, out, err
}

// quartiles returns the median and the first and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the
// driver's spread uses the same rule).
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (an empty layer, not an error).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
