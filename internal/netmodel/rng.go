// Package netmodel provides the simulated Internet under the
// telescope: IPv4 addressing, an autonomous-system registry standing in
// for PeeringDB, and the deterministic random-number generation every
// generator in the pipeline draws from.
package netmodel

import (
	"math"
	"strconv"
)

// RNG is a deterministic SplitMix64 generator. It is the only source
// of randomness in the simulation: a run is fully determined by its
// seed, making every figure in EXPERIMENTS.md bit-reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child generator labelled by name, so
// adding a new traffic source never perturbs the draws of existing
// ones.
func (r *RNG) Fork(name string) *RNG {
	return &RNG{state: r.Uint64() ^ fnv1a(fnvOffset, name)}
}

// ForkIndexed returns the generator Fork(fmt.Sprintf("%s/%d", prefix,
// i)) would, by value and without formatting the label: the schedule
// forks one per planned event.
func (r *RNG) ForkIndexed(prefix string, i int) RNG {
	var buf [24]byte
	index := strconv.AppendInt(append(buf[:0], '/'), int64(i), 10)
	return RNG{state: r.Uint64() ^ fnv1a(fnv1a(fnvOffset, prefix), index)}
}

// fnvOffset starts a 64-bit FNV-1a hash (hash/fnv's New64a); fnv1a
// continues h over s, so a fork hashes its label without allocating.
const fnvOffset = 14695981039346656037

func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("netmodel: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint32 returns 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed variate with the given
// mean. Inter-arrival gaps of scan and flood packets are exponential.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Pareto returns a Pareto(xm, alpha) variate. Attack durations and
// victim popularity are heavy-tailed; Pareto matches the paper's
// long-tailed CDFs (Figs 6, 7, 13).
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Normal returns a normally distributed variate (Box–Muller).
func (r *RNG) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// Pick returns a random element index weighted by weights. The weights
// need not sum to one. It panics on an empty or all-zero slice. Each
// call is O(len(weights)); repeated draws from one table belong on a
// Sampler, which returns the same indices.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("netmodel: Pick with non-positive total weight")
	}
	return scanWeights(weights, r.Float64()*total)
}

// Shuffle performs a Fisher–Yates shuffle over n elements.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Read implements io.Reader, letting an RNG drive the handshake
// packages' entropy deterministically in simulations.
func (r *RNG) Read(p []byte) (int, error) {
	r.Bytes(p)
	return len(p), nil
}
