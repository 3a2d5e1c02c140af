// Package stats provides the small statistical toolkit the analyses
// share: empirical CDFs, percentiles and histograms.
package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution over float64 samples.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples.
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X ≤ x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using the nearest-rank
// method.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return e.sorted[rank]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Min and Max return the sample extremes (NaN when empty).
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample (NaN when empty).
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Mean returns the arithmetic mean (NaN when empty).
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Points samples the CDF at n log-spaced x positions between min and
// max, for plotting. Returns (x, y) pairs.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	if lo <= 0 {
		lo = math.SmallestNonzeroFloat64
	}
	if hi <= lo {
		return []float64{hi}, []float64{1}
	}
	logLo, logHi := math.Log10(lo), math.Log10(hi)
	for i := 0; i < n; i++ {
		x := math.Pow(10, logLo+(logHi-logLo)*float64(i)/float64(n-1))
		xs = append(xs, x)
		ys = append(ys, e.At(x))
	}
	return xs, ys
}

// Percentile computes the p-th percentile (0–100) of unsorted samples.
func Percentile(samples []float64, p float64) float64 {
	return NewECDF(samples).Quantile(p / 100)
}

// Median computes the median of unsorted samples.
func Median(samples []float64) float64 { return Percentile(samples, 50) }
