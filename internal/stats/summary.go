package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Median float64
	P90    float64
	P99    float64
	Sum    float64
}

// Summarize computes descriptive statistics. A nil or empty sample returns
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.5)
	s.P90 = Percentile(sorted, 0.9)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the q-quantile (q in [0,1]) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics if the
// sample is empty.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	// Bounds-guard both ranks: float rounding in q·(n−1) must never index
	// one past the end (q just below 1) or below the start.
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo >= hi {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF. The input is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}
