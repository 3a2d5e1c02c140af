package netmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Fork("scanner")
	c2 := root.Fork("flood")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked streams collided")
	}
}

func TestRNGForkReproducible(t *testing.T) {
	mk := func() (uint64, uint64) {
		root := NewRNG(99)
		a := root.Fork("a")
		b := root.Fork("b")
		return a.Uint64(), b.Uint64()
	}
	a1, b1 := mk()
	a2, b2 := mk()
	if a1 != a2 || b1 != b2 {
		t.Fatal("forked streams not reproducible")
	}
}

// TestForkHashesWithFNV1a pins Fork's label hash to hash/fnv's
// New64a, which every recorded month was forked with.
func TestForkHashesWithFNV1a(t *testing.T) {
	for _, name := range []string{"", "census", "plan/google-wave", "qattack/2904", "templates/0xff00001d"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed := NewRNG(11)
		want := RNG{state: seed.Uint64() ^ h.Sum64()}
		if got := NewRNG(11).Fork(name); *got != want {
			t.Errorf("Fork(%q) state %x, FNV-1a reference %x", name, got.state, want.state)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { NewRNG(1).ForkIndexed("atk", 12345) }); avg != 0 {
		t.Errorf("ForkIndexed allocates %.1f objects", avg)
	}
}

// TestForkIndexed holds ForkIndexed to the formatted fork it replaces
// at the three flood sites, and advances the parent alike.
func TestForkIndexed(t *testing.T) {
	for _, prefix := range []string{"atk", "cattack", "qattack"} {
		for _, i := range []int{0, 9, 10, 99, 12345, 1 << 40, -7} {
			a, b := NewRNG(2021), NewRNG(2021)
			got := a.ForkIndexed(prefix, i)
			want := b.Fork(fmt.Sprintf("%s/%d", prefix, i))
			if got != *want {
				t.Errorf("ForkIndexed(%q, %d) state %x, Fork %x", prefix, i, got.state, want.state)
			}
			if a.Uint64() != b.Uint64() {
				t.Errorf("ForkIndexed(%q, %d) left the parent elsewhere than Fork", prefix, i)
			}
		}
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(123)
	const n = 20000

	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	if mean := sum / n; math.Abs(mean-5.0) > 0.2 {
		t.Errorf("Exp mean = %.3f, want ≈5", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %.3f, want ≈10", mean)
	}

	// Pareto: all samples ≥ xm, heavy tail present.
	maxV, minV := 0.0, math.Inf(1)
	for i := 0; i < n; i++ {
		v := r.Pareto(2, 1.2)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV < 2 {
		t.Errorf("Pareto sample %f below xm", minV)
	}
	if maxV < 20 {
		t.Errorf("Pareto tail too light: max %f", maxV)
	}

	// Float64 in [0,1).
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
	}
}

func TestRNGPickWeights(t *testing.T) {
	r := NewRNG(5)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Errorf("weights not respected: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("weight-7 share = %.3f", frac)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestAddrRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		parsed, err := ParseAddr(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ParseAddr("1.2.3"); err == nil {
		t.Error("short address accepted")
	}
	if _, err := ParseAddr("1.2.3.400"); err == nil {
		t.Error("octet 400 accepted")
	}
}

func TestPrefixBasics(t *testing.T) {
	p := MustPrefix("44.0.0.0/9")
	if p.Size() != 1<<23 {
		t.Errorf("size = %d", p.Size())
	}
	if !p.Contains(MustAddr("44.127.255.255")) || p.Contains(MustAddr("44.128.0.0")) {
		t.Error("containment wrong")
	}
	if p.Last() != MustAddr("44.127.255.255") {
		t.Errorf("last = %v", p.Last())
	}
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if a := p.Random(r); !p.Contains(a) {
			t.Fatalf("Random escaped prefix: %v", a)
		}
	}
	if p.Nth(0) != p.Base || p.Nth(p.Size()) != p.Base {
		t.Error("Nth wrapping wrong")
	}
	q := MustPrefix("44.64.0.0/10")
	if !p.Overlaps(q) || !q.Overlaps(p) {
		t.Error("overlap not detected")
	}
	if p.Overlaps(MustPrefix("45.0.0.0/8")) {
		t.Error("false overlap")
	}
}

func TestPrefixValidation(t *testing.T) {
	for _, bad := range []string{"1.2.3.4", "1.2.3.4/33", "44.1.0.0/9"} {
		func() {
			defer func() { recover() }()
			MustPrefix(bad)
			t.Errorf("MustPrefix(%q) did not panic", bad)
		}()
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := NewRegistry()
	reg.MustAdd(&AS{ASN: 1, Name: "A", Type: TypeContent, Country: "US",
		Prefixes: []Prefix{MustPrefix("10.0.0.0/8")}})
	reg.MustAdd(&AS{ASN: 2, Name: "B", Type: TypeEyeball, Country: "BD",
		Prefixes: []Prefix{MustPrefix("11.0.0.0/16"), MustPrefix("12.5.0.0/16")}})

	if as := reg.Lookup(MustAddr("10.1.2.3")); as == nil || as.ASN != 1 {
		t.Errorf("lookup 10.1.2.3 = %v", as)
	}
	if as := reg.Lookup(MustAddr("12.5.200.1")); as == nil || as.ASN != 2 {
		t.Errorf("lookup 12.5.200.1 = %v", as)
	}
	if as := reg.Lookup(MustAddr("13.0.0.1")); as != nil {
		t.Errorf("lookup unallocated = %v", as)
	}
	if reg.TypeOf(MustAddr("11.0.0.1")) != TypeEyeball {
		t.Error("TypeOf wrong")
	}
	if reg.TypeOf(MustAddr("200.0.0.1")) != TypeUnknown {
		t.Error("unallocated should be Unknown")
	}
	if reg.CountryOf(MustAddr("10.0.0.1")) != "US" || reg.CountryOf(MustAddr("250.0.0.1")) != "" {
		t.Error("CountryOf wrong")
	}
	if reg.ByName("B") == nil || reg.ByName("nope") != nil {
		t.Error("ByName wrong")
	}
}

func TestRegistryRejectsOverlap(t *testing.T) {
	reg := NewRegistry()
	reg.MustAdd(&AS{ASN: 1, Prefixes: []Prefix{MustPrefix("10.0.0.0/8")}})
	err := reg.Add(&AS{ASN: 2, Prefixes: []Prefix{MustPrefix("10.5.0.0/16")}})
	if err == nil {
		t.Fatal("overlap accepted")
	}
	if err := reg.Add(&AS{ASN: 1}); err == nil {
		t.Fatal("duplicate ASN accepted")
	}
}

func TestBuildInternetInvariants(t *testing.T) {
	in := BuildInternet() // panics on overlap

	// The telescope must be dark: no AS may own any of it.
	for i := 0; i < 1000; i++ {
		a := TelescopePrefix.Nth(uint64(i) * 8191)
		if as := in.Registry.Lookup(a); as != nil {
			t.Fatalf("telescope address %v owned by AS%d", a, as.ASN)
		}
	}

	// Role collections resolve and carry the right types.
	for _, asn := range in.ContentASNs {
		as := in.Registry.ByASN(asn)
		if as == nil || as.Type != TypeContent {
			t.Errorf("content ASN %d: %+v", asn, as)
		}
	}
	for _, asn := range in.EyeballASNs {
		as := in.Registry.ByASN(asn)
		if as == nil || as.Type != TypeEyeball {
			t.Errorf("eyeball ASN %d: %+v", asn, as)
		}
	}

	// Research predicate.
	tum := in.Registry.ByASN(ASNTUM)
	if !in.IsResearchSource(tum.Prefixes[0].Base + 5) {
		t.Error("TUM address not flagged research")
	}
	if in.IsResearchSource(MustAddr("8.8.8.8")) {
		t.Error("unallocated flagged research")
	}
	goog := in.Registry.ByASN(ASNGoogle)
	if in.IsResearchSource(goog.Prefixes[0].Base) {
		t.Error("Google flagged research")
	}

	// Random host drawing stays inside the AS.
	r := NewRNG(11)
	for i := 0; i < 500; i++ {
		a := in.RandomHostOf(ASNFacebook, r)
		as := in.Registry.Lookup(a)
		if as == nil || as.ASN != ASNFacebook {
			t.Fatalf("RandomHostOf escaped: %v -> %v", a, as)
		}
	}

	// Country mix exists for the paper's top origins.
	countries := map[string]bool{}
	for _, asn := range in.EyeballASNs {
		countries[in.Registry.ByASN(asn).Country] = true
	}
	for _, c := range []string{"BD", "US", "DZ"} {
		if !countries[c] {
			t.Errorf("missing eyeball country %s", c)
		}
	}
}

func TestNetworkTypeStrings(t *testing.T) {
	if TypeEyeball.String() != "Cable/DSL/ISP" || TypeContent.String() != "Content" {
		t.Error("figure labels wrong")
	}
	if len(AllNetworkTypes) != 6 {
		t.Error("type universe wrong")
	}
	if NetworkType(99).String() == "" {
		t.Error("unknown type string empty")
	}
}

func TestRNGReadInterface(t *testing.T) {
	r := NewRNG(1)
	buf := make([]byte, 33)
	n, err := r.Read(buf)
	if n != 33 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("Read produced all zeros")
	}
}

func TestTelescopeShare(t *testing.T) {
	want := float64(TelescopePrefix.Size()) / float64(1<<32)
	if math.Abs(TelescopeShare-want) > 1e-12 {
		t.Errorf("TelescopeShare = %v, want %v", TelescopeShare, want)
	}
}

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr { return p.Base + Addr(p.Size()-1) }

// ByName returns the first AS whose Name matches, or nil.
func (reg *Registry) ByName(name string) *AS {
	for _, as := range reg.asns {
		if as.Name == name {
			return as
		}
	}
	return nil
}

// ASes returns all registered ASes (unordered).
func (reg *Registry) ASes() []*AS {
	out := make([]*AS, 0, len(reg.asns))
	for _, as := range reg.asns {
		out = append(out, as)
	}
	return out
}
