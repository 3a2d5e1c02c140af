package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{5, 1, 3, 2, 4})
	if e.N() != 5 {
		t.Errorf("N = %d", e.N())
	}
	if e.Median() != 3 {
		t.Errorf("median = %f", e.Median())
	}
	if e.Min() != 1 || e.Max() != 5 {
		t.Errorf("min/max = %f/%f", e.Min(), e.Max())
	}
	if e.Mean() != 3 {
		t.Errorf("mean = %f", e.Mean())
	}
	if got := e.At(3); got != 0.6 {
		t.Errorf("At(3) = %f", got)
	}
	if got := e.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %f", got)
	}
	if got := e.At(5); got != 1 {
		t.Errorf("At(5) = %f", got)
	}
	if got := e.At(2.5); got != 0.4 {
		t.Errorf("At(2.5) = %f", got)
	}
}

func TestECDFQuantileBounds(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	if e.Quantile(0) != 10 || e.Quantile(1) != 40 {
		t.Error("quantile bounds")
	}
	if e.Quantile(0.25) != 10 || e.Quantile(0.5) != 20 || e.Quantile(0.75) != 30 {
		t.Errorf("quartiles: %f %f %f", e.Quantile(0.25), e.Quantile(0.5), e.Quantile(0.75))
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.Median()) || !math.IsNaN(e.Mean()) || !math.IsNaN(e.Min()) || !math.IsNaN(e.Max()) {
		t.Error("empty ECDF should yield NaN")
	}
	if e.At(1) != 0 {
		t.Error("empty At should be 0")
	}
	xs, ys := e.Points(5)
	if xs != nil || ys != nil {
		t.Error("empty Points should be nil")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("input mutated")
	}
}

func TestECDFPointsMonotone(t *testing.T) {
	e := NewECDF([]float64{1, 10, 100, 1000, 10000})
	xs, ys := e.Points(20)
	if len(xs) != 20 {
		t.Fatalf("points = %d", len(xs))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] || xs[i] <= xs[i-1] {
			t.Fatal("points not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Errorf("last y = %f", ys[len(ys)-1])
	}
}

func TestECDFProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var samples []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		e := NewECDF(samples)
		// At(max) == 1, At(min - 1) == 0, median within [min,max].
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		if e.At(sorted[len(sorted)-1]) != 1 {
			return false
		}
		m := e.Median()
		return m >= sorted[0] && m <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileHelpers(t *testing.T) {
	samples := []float64{9, 7, 5, 3, 1}
	if Median(samples) != 5 {
		t.Errorf("median = %f", Median(samples))
	}
	if Percentile(samples, 100) != 9 || Percentile(samples, 0) != 1 {
		t.Error("percentile extremes")
	}
}
