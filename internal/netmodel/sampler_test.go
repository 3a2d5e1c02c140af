package netmodel

import (
	"math"
	"testing"
)

func paretoWeights(n int, seed uint64) []float64 {
	r := NewRNG(seed)
	w := make([]float64, n)
	for i := range w {
		w[i] = r.Pareto(1, 1.5)
	}
	return w
}

// TestSamplerMatchesPick pairs a Sampler with RNG.Pick on twin
// generators: every draw must return the same index and leave both
// generators in the same state. Draw counts shrink with table size
// because Pick is linear; the total stays above 10⁶.
func TestSamplerMatchesPick(t *testing.T) {
	zeros := paretoWeights(64, 3)
	for i := range zeros {
		if i%3 != 0 {
			zeros[i] = 0
		}
	}
	lastOnly := make([]float64, 50)
	lastOnly[len(lastOnly)-1] = 2.5

	cases := []struct {
		name    string
		weights []float64
		draws   int
	}{
		{"pareto-1", paretoWeights(1, 11), 100_000},
		{"pareto-2", paretoWeights(2, 12), 300_000},
		{"pareto-7", paretoWeights(7, 13), 300_000},
		{"pareto-1e3", paretoWeights(1000, 14), 200_000},
		{"pareto-1e5", paretoWeights(100_000, 15), 4_000},
		{"zero-weights", zeros, 100_000},
		{"leading-zero", []float64{0, 0, 1, 0, 3, 0}, 100_000},
		{"all-mass-last", lastOnly, 100_000},
		{"prefix-sizes", []float64{1 << 17, 1 << 16, 1 << 13, 1 << 16, 1 << 15}, 100_000},
	}
	total := 0
	for _, tc := range cases {
		s := NewSampler(tc.weights)
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < tc.draws; i++ {
			want, got := a.Pick(tc.weights), s.Pick(b)
			if got != want {
				t.Fatalf("%s: draw %d: sampler %d, Pick %d", tc.name, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%s: generators diverged (draw counts differ)", tc.name)
		}
		total += tc.draws
	}
	if total < 1_000_000 {
		t.Fatalf("only %d paired draws", total)
	}
}

// TestSamplerGuardBand feeds x values sitting on and next to every
// boundary — where prefix sums and running subtraction may disagree —
// and checks index still equals the reference scan. Each probe is
// asserted to lie inside the band, so it is the fallback that answers.
func TestSamplerGuardBand(t *testing.T) {
	for _, weights := range [][]float64{
		paretoWeights(1000, 21),
		{0.1, 0.2, 0.3, 0.1, 0.2, 0.3}, // sums that do not round-trip
		{0, 1, 0, 0, 1e-12, 5},
	} {
		s := NewSampler(weights)
		total := s.cum[len(s.cum)-1]
		probe := func(x float64) {
			t.Helper()
			if x < 0 || x > total {
				return
			}
			near := x <= s.guard
			for _, c := range s.cum {
				if math.Abs(c-x) <= s.guard {
					near = true
				}
			}
			if !near {
				t.Fatalf("probe %g is outside the guard band %g", x, s.guard)
			}
			if got, want := s.index(x), scanWeights(weights, x); got != want {
				t.Fatalf("x=%g: index %d, scan %d", x, got, want)
			}
		}
		probe(0)
		for _, c := range s.cum {
			probe(c)
			probe(math.Nextafter(c, 0))
			probe(math.Nextafter(c, math.Inf(1)))
			probe(c - s.guard/2)
			probe(c + s.guard/2)
		}
	}
}

func TestSamplerPanicsOnNonPositiveTotal(t *testing.T) {
	for _, weights := range [][]float64{nil, {}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSampler(%v) should panic", weights)
				}
			}()
			NewSampler(weights)
		}()
	}
}

// TestRandomHostOfDrawIdentical pins RandomHostOf to the formula the
// schedule was calibrated with: Pick over prefix sizes, then a uniform
// host — same addresses, same generator state afterwards.
func TestRandomHostOfDrawIdentical(t *testing.T) {
	in := BuildInternet()
	for _, as := range in.Registry.ASes() {
		sizes := make([]float64, len(as.Prefixes))
		for i, p := range as.Prefixes {
			sizes[i] = float64(p.Size())
		}
		a, b := NewRNG(uint64(as.ASN)), NewRNG(uint64(as.ASN))
		for i := 0; i < 2000; i++ {
			want := as.Prefixes[a.Pick(sizes)].Random(a)
			if got := in.RandomHostOf(as.ASN, b); got != want {
				t.Fatalf("AS%d draw %d: %v, want %v", as.ASN, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("AS%d: generators diverged", as.ASN)
		}
	}
}

// TestIsResearchSourceMatchesLookup holds the precomputed-prefix
// predicate equal to the registry join it replaced, at every
// allocation edge and over random addresses.
func TestIsResearchSourceMatchesLookup(t *testing.T) {
	in := BuildInternet()
	viaLookup := func(a Addr) bool {
		as := in.Registry.Lookup(a)
		if as == nil {
			return false
		}
		for _, asn := range in.ResearchASNs {
			if as.ASN == asn {
				return true
			}
		}
		return false
	}
	check := func(a Addr) {
		t.Helper()
		if got, want := in.IsResearchSource(a), viaLookup(a); got != want {
			t.Fatalf("%v: IsResearchSource %v, lookup %v", a, got, want)
		}
	}
	research := 0
	for _, as := range in.Registry.ASes() {
		for _, p := range as.Prefixes {
			for _, a := range []Addr{p.Base - 1, p.Base, p.Last(), p.Last() + 1} {
				check(a)
			}
			if in.IsResearchSource(p.Base) {
				research++
			}
		}
	}
	if research != 2 {
		t.Fatalf("%d research prefixes, want 2", research)
	}
	r := NewRNG(9)
	for i := 0; i < 100_000; i++ {
		check(Addr(r.Uint32()))
	}
	for _, asn := range in.ResearchASNs {
		for i := 0; i < 1000; i++ {
			check(in.RandomHostOf(asn, r))
		}
	}
}
