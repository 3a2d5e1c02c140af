package ibr

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"quicsand/internal/netmodel"
)

// sortCase is one two-run input for the arrival sorter: n values, the
// first split drawn from a and the rest from b.
type sortCase struct {
	name     string
	seed     uint64
	n, split int
	a, b     span
	dups     int  // > 0: each value is one of dups evenly spaced points of its run's range
	outside  bool // every run gets one value one ulp below and one above its range
}

var sortCases = func() []sortCase {
	burst := func(name string, start float64) sortCase {
		return sortCase{name: name, seed: 11, n: 2 + 240 + 150, split: 240,
			a: span{start, start + 120}, b: span{0, 1000}}
	}
	cs := []sortCase{
		burst("burst-at-start", 0),
		burst("burst-in-middle", 440),
		burst("burst-at-end", 880),
		{name: "window-is-duration", seed: 12, n: 2 + 80 + 40, split: 80, a: span{0, 90}, b: span{0, 90}},
		{name: "long-attack", seed: 13, n: 2 + 4000 + 20000, split: 4000, a: span{51234.5, 51354.5}, b: span{0, 90000}},
		{name: "one-run", seed: 14, n: 5000, b: span{0, 600}},
		{name: "duplicates", seed: 15, n: 3000, split: 1000, a: span{10, 130}, b: span{0, 300}, dups: 7},
		{name: "one-ulp-outside", seed: 16, n: 600, split: 200, a: span{100, 220}, b: span{0, 400}, outside: true},
		{name: "duplicates-outside", seed: 17, n: 64, split: 30, a: span{5, 6}, b: span{0, 8}, dups: 2, outside: true},
		{name: "degenerate-range", seed: 18, n: 50, split: 0, b: span{7, 7}},
	}
	for _, n := range []int{0, 1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 1000, 20000} {
		cs = append(cs, sortCase{name: "length", seed: uint64(100 + n), n: n, b: span{0, 3600}})
		cs = append(cs, sortCase{name: "two-runs", seed: uint64(200 + n), n: n, split: n / 2, a: span{60, 180}, b: span{0, 3600}})
	}
	return cs
}()

// input draws the case's values: each run opens with its range's ends
// (a flood's brackets) when it has room.
func (c sortCase) input() []float64 {
	rng := netmodel.NewRNG(c.seed)
	out := make([]float64, 0, c.n)
	run := func(n int, r span) {
		for i := 0; i < n; i++ {
			var v float64
			switch {
			case c.outside && i == n-1 && n > 1:
				v = math.Nextafter(r.lo, math.Inf(-1))
			case c.outside && i == n-2 && n > 2:
				v = math.Nextafter(r.hi, math.Inf(1))
			case i < 2 && n > 3:
				v = []float64{r.lo, r.hi}[i]
			case c.dups > 0:
				v = r.lo + float64(rng.Intn(c.dups))*(r.hi-r.lo)/float64(c.dups)
			default:
				v = r.lo + rng.Float64()*(r.hi-r.lo)
			}
			out = append(out, v)
		}
	}
	run(c.split, c.a)
	run(c.n-c.split, c.b)
	return out
}

// checkSorted sorts raw through s and compares it bit for bit with
// sort.Float64s.
func checkSorted(t *testing.T, name string, s *arrivalScratch, raw []float64, split int, a, b span) {
	t.Helper()
	want := append([]float64(nil), raw...)
	sort.Float64s(want)
	got := s.sort(raw, split, a, b)
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, sort.Float64s has %v", name, i, got[i], want[i])
		}
	}
}

// testFloods covers every shape, the burst window's two regimes, long
// attacks and amplification.
var testFloods = []floodSpec{
	{vector: VectorTCP, durSec: 300, peakPkts: 100, basePkts: 50},
	{vector: VectorTCP, durSec: 90, peakPkts: 40, basePkts: 10},
	{vector: VectorICMP, durSec: 90000, peakPkts: 2000, basePkts: 20000},
	{vector: VectorTCP, durSec: 65, peakPkts: 6, basePkts: 2},
	{vector: VectorTCP, durSec: 0, peakPkts: 10, basePkts: 5},
	{vector: VectorTCP, durSec: 600, peakPkts: 300, basePkts: 900, shape: shapeSquare},
	{vector: VectorICMP, durSec: 600, peakPkts: 300, basePkts: 900, shape: shapeRamp},
	{vector: VectorTCP, durSec: 400, peakPkts: 200, basePkts: 100, amp: 3},
	{vector: VectorICMP, durSec: 800, peakPkts: 50, basePkts: 400, shape: shapeRamp, amp: 2},
	{vector: VectorQUIC, durSec: 500, peakPkts: 150, basePkts: 120, nPorts: 9, scidRatio: 0.5, amp: 2},
}

// newTestFlood returns a copy of spec ready to stream with its own RNG.
func newTestFlood(t *testing.T, spec floodSpec, seed uint64) *floodSpec {
	f := spec
	f.victim = netmodel.MustAddr("38.1.2.3")
	f.startSec = 1000
	f.nAddrs = 4
	if f.nPorts == 0 {
		f.nPorts = 8
	}
	f.rng = *netmodel.NewRNG(seed)
	if f.vector == VectorQUIC {
		f.tpl = testTemplates(t)
	}
	return &f
}

// TestSortArrivalsMatchesSort pins the bucket sort against
// sort.Float64s bit for bit: on hand-built runs (burst window at the
// start, middle and end; run lengths around the insertion cutoff and up
// to 20 000; duplicates; values one ulp outside the stated range) and on
// every flood shape's real draws, where the streamed timestamps must
// also follow the reference order, amp packets per arrival.
func TestSortArrivalsMatchesSort(t *testing.T) {
	var s arrivalScratch
	for _, c := range sortCases {
		checkSorted(t, c.name, &s, c.input(), c.split, c.a, c.b)
	}
	for i, spec := range testFloods {
		for seed := uint64(1); seed <= 5; seed++ {
			raw, split, a, b := newTestFlood(t, spec, seed).drawArrivals(&s)
			want := append([]float64(nil), raw...)
			sort.Float64s(want)
			checkSorted(t, "flood", &s, raw, split, a, b)

			f := newTestFlood(t, spec, seed)
			pkts := drain(f, testPool(false))
			amp := max(f.amp, 1)
			if len(pkts) != len(want)*amp {
				t.Fatalf("flood %d seed %d: %d packets for %d arrivals × %d", i, seed, len(pkts), len(want), amp)
			}
			for j := range pkts {
				if ts := tsAt(f.startSec + want[j/amp]); pkts[j].TS != ts {
					t.Fatalf("flood %d seed %d: packet %d at %d, reference order has %d", i, seed, j, pkts[j].TS, ts)
				}
			}
		}
	}
}

// FuzzSortArrivals holds the sorter to sort.Float64s on arbitrary
// two-run inputs. Arrival offsets are never NaN or negative zero, the
// two values whose sorted order is not unique by bits, so the fuzzer
// skips them.
func FuzzSortArrivals(f *testing.F) {
	for _, c := range sortCases {
		f.Add(c.seed, uint16(c.n), uint16(c.split), c.a.lo, c.a.hi, c.b.lo, c.b.hi, uint8(c.dups), c.outside)
	}
	var s arrivalScratch
	f.Fuzz(func(t *testing.T, seed uint64, n, split uint16, alo, ahi, blo, bhi float64, dups uint8, outside bool) {
		for _, v := range []float64{alo, ahi, blo, bhi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
				t.Skip()
			}
		}
		c := sortCase{seed: seed, n: int(n) % 20001, a: span{alo, ahi}, b: span{blo, bhi}, dups: int(dups), outside: outside}
		c.split = int(split) % (c.n + 1)
		raw := c.input()
		for _, v := range raw {
			if math.IsNaN(v) || (v == 0 && math.Signbit(v)) {
				t.Skip()
			}
		}
		checkSorted(t, "fuzz", &s, raw, c.split, c.a, c.b)
	})
}

// TestSortArrivalsWarmScratch drives one warm recycling pool through
// 200 mixed floods — large after small and small after large, every
// shape, vector and amplification — and holds each stream to a cold
// one through a fresh pool: scratch, working state and chunks left over
// from an earlier flood must never leak into a later one.
func TestSortArrivalsWarmScratch(t *testing.T) {
	pool := testPool(true)
	rng := netmodel.NewRNG(77)
	for i := 0; i < 200; i++ {
		spec := testFloods[rng.Intn(len(testFloods))]
		if i%2 == 0 {
			spec.peakPkts, spec.basePkts = 1+rng.Intn(20), rng.Intn(10)
		} else {
			spec.peakPkts, spec.basePkts = 200+rng.Intn(2000), rng.Intn(8000)
		}
		spec.durSec = 30 + rng.Float64()*5000
		seed := uint64(1000 + i)
		warm := drain(newTestFlood(t, spec, seed), pool)
		cold := drain(newTestFlood(t, spec, seed), testPool(false))
		if len(warm) != len(cold) {
			t.Fatalf("flood %d: warm pool streamed %d packets, fresh pool %d", i, len(warm), len(cold))
		}
		for j := range cold {
			if !reflect.DeepEqual(warm[j], cold[j]) {
				t.Fatalf("flood %d packet %d: warm %+v, fresh pool %+v", i, j, warm[j], cold[j])
			}
		}
	}
}
