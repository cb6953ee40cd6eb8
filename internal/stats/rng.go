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
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
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
