package ibr

// Flood arrival times without a comparison sort. A flood's arrival
// offsets are uniform (or, for shapeRamp, linearly dense) draws over
// ranges the flood knows before drawing, so each run of draws is
// bucket-sorted on its own range in linear expected time and the runs
// are merged. Flood materialisation is most of a generated month, and a
// comparison sort of the arrivals cost a fifth of the simulate path's
// CPU (EXPERIMENTS.md PR-21).
//
// The result equals sort.Float64s bit for bit by construction, not by
// distribution: the bucket of a value is a monotone function of it, and
// an insertion-sort finish orders whatever the buckets leave unordered,
// so any input — values outside the stated range included — comes out
// sorted, and a sorted multiset has exactly one order as long as it
// holds no NaN and no negative zero, which arrival offsets never are.
// The distribution only decides the speed.

// span is the closed range one run of arrival draws is taken from.
type span struct{ lo, hi float64 }

// insertionCutoff is the run length below which a run is insertion
// sorted directly: counting buckets costs more than it saves there.
const insertionCutoff = 24

// arrivalScratch is a flood activation's working storage for arrival
// offsets: the draws, the sorted runs and the bucket counts. None of it
// outlives the activation, so a shard's slab pool keeps one and reuses
// it for every flood of the shard, whether or not packet slabs recycle.
type arrivalScratch struct {
	raw, tmp []float64
	counts   []uint32
}

// draws returns an empty draw buffer with room for n offsets.
func (s *arrivalScratch) draws(n int) []float64 {
	if cap(s.raw) < n {
		s.raw = make([]float64, 0, n)
	}
	return s.raw[:0]
}

// sort returns raw's values in ascending order. raw[:split] were drawn
// from a and raw[split:] from b; either run may be empty. The result
// lives in s and is valid until s is used again.
func (s *arrivalScratch) sort(raw []float64, split int, a, b span) []float64 {
	if cap(s.tmp) < len(raw) {
		s.tmp = make([]float64, len(raw))
	}
	tmp := s.tmp[:len(raw)]
	if split == 0 {
		s.bucketSort(tmp, raw, b)
		return tmp
	}
	s.bucketSort(tmp[:split], raw[:split], a)
	s.bucketSort(tmp[split:], raw[split:], b)
	mergeRuns(raw, tmp[:split], tmp[split:])
	return raw
}

// bucketSort writes src's values to dst (same length, no overlap) in
// ascending order: a counting pass into len(src) buckets over r, a
// scatter, and an insertion-sort finish.
func (s *arrivalScratch) bucketSort(dst, src []float64, r span) {
	n := len(src)
	if n < insertionCutoff {
		copy(dst, src)
		insertionSort(dst)
		return
	}
	// An empty or inverted range only costs speed: every value lands in
	// an end bucket and the insertion finish does the sorting.
	scale := float64(n) / (r.hi - r.lo)
	if cap(s.counts) < n {
		s.counts = make([]uint32, n)
	}
	counts := s.counts[:n]
	clear(counts)
	for _, v := range src {
		counts[bucketOf(v, r.lo, scale, n)]++
	}
	// Exclusive prefix sums: counts[k] becomes bucket k's first slot.
	var next uint32
	for k, c := range counts {
		counts[k] = next
		next += c
	}
	for _, v := range src {
		k := bucketOf(v, r.lo, scale, n)
		dst[counts[k]] = v
		counts[k]++
	}
	insertionSort(dst)
}

// bucketOf maps v to one of n buckets over [lo, lo+n/scale]. For
// scale > 0 it is monotone in v, so buckets never invert two values;
// values outside the range clamp into the end buckets.
func bucketOf(v, lo, scale float64, n int) int {
	f := (v - lo) * scale
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// insertionSort sorts x in place; linear on nearly sorted input.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i
		for j > 0 && v < x[j-1] {
			x[j] = x[j-1]
			j--
		}
		x[j] = v
	}
}

// mergeRuns merges the sorted runs x and y into dst, which has room for
// both and overlaps neither.
func mergeRuns(dst, x, y []float64) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j] < x[i] {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}
