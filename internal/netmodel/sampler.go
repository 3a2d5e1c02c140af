package netmodel

// Sampler draws weighted indices from a fixed table in O(log n): the
// cumulative sums are built once and each draw is a binary search.
//
// It is draw-for-draw identical to RNG.Pick over the same weights —
// one Float64 consumed, the same index returned — so a schedule can
// switch from Pick to a Sampler without moving a single packet. Pick
// walks the table subtracting weights from x; a search over prefix
// sums rounds differently, so the two can disagree only when x sits
// within accumulated rounding error of a boundary. The sampler accepts
// the searched index only when x is farther than guard from both
// neighbouring boundaries and otherwise runs Pick's own scan
// (scanWeights), which makes the identity hold by construction, not by
// numerical luck.
type Sampler struct {
	weights []float64 // the caller's table, scanned on the fallback path
	cum     []float64 // cum[i] = w[0] + … + w[i], summed in Pick's order
	guard   float64
}

// NewSampler builds a sampler over weights, which must be non-negative
// and must not change afterwards (the slice is retained, not copied).
// Like Pick it panics on an empty or all-zero table.
func NewSampler(weights []float64) *Sampler {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("netmodel: Sampler with non-positive total weight")
	}
	// Both the running subtraction and the running sum lose at most one
	// rounding (2^-53 relative to a magnitude ≤ total) per element, so
	// they differ by < 2n·2^-53·total; the band is four times that.
	return &Sampler{weights: weights, cum: cum, guard: float64(len(weights)) * 0x1p-50 * total}
}

// Pick returns the index RNG.Pick(weights) would return from the same
// generator state, and leaves r in the same state.
func (s *Sampler) Pick(r *RNG) int {
	return s.index(r.Float64() * s.cum[len(s.cum)-1])
}

// index maps x in [0, total] to its weighted index.
func (s *Sampler) index(x float64) int {
	// First i with cum[i] > x; zero-weight entries share their
	// predecessor's boundary and are never selected, as in the scan.
	lo, hi := 0, len(s.cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s.cum) {
		var below float64
		if lo > 0 {
			below = s.cum[lo-1]
		}
		if x-below > s.guard && s.cum[lo]-x > s.guard {
			return lo
		}
	}
	return scanWeights(s.weights, x)
}

// scanWeights is the reference weighted scan: the first index at which
// x, reduced by each weight in turn, goes negative (the last index if
// rounding keeps it from ever doing so).
func scanWeights(weights []float64, x float64) int {
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
