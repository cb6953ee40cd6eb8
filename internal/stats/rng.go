// Package stats provides the statistical substrate for the workflow
// scheduling simulator: deterministic random number generation, the Pareto
// distribution used by the paper's workload model (Feitelson-style execution
// times), empirical CDFs, histograms and summary statistics.
//
// Everything in this package is deterministic given an explicit seed so that
// the full experiment sweep is reproducible bit-for-bit.
package stats

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64). It is intentionally independent from math/rand so that
// results are stable across Go releases.
//
// The zero value is a valid generator seeded with 0; use NewRNG to seed it
// explicitly.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += GoldenGamma
	return Mix64(r.state)
}

// GoldenGamma is splitmix64's state increment: 2^64 over the golden
// ratio, odd, so stepping by it visits every 64-bit state.
const GoldenGamma uint64 = 0x9e3779b97f4a7c15

// Mix64 is splitmix64's finalizer: a bijection of 64-bit values in which
// every output bit depends on every input bit. The repository's
// deterministic streams and identifiers all end in it.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash folds the values into one well-scrambled 64-bit hash: it starts at
// GoldenGamma and, per value, adds the value and GoldenGamma and applies
// Mix64. Equal values give equal hashes, so a seed derived from an
// entity's identity (a fault kind and VM, a market's VM index) does not
// depend on how many draws came before it.
func Hash(vs ...uint64) uint64 {
	h := GoldenGamma
	for _, v := range vs {
		h = Mix64(h + v + GoldenGamma)
	}
	return h
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits, the standard conversion.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniformly distributed value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Split derives an independent generator from the current stream. The parent
// stream advances by one value. Splitting is used to give each workflow task
// its own stream so that adding tasks does not perturb earlier draws.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
