package stats

import "math"

// Pareto is a Pareto (type I) distribution with shape alpha and scale xm
// (the minimum value). The paper's workload model uses shape 2.0 for task
// execution times and shape 1.3 for task data sizes, both with scale 500
// (Feitelson's analytic runtime model, paper Sect. IV-B and Fig. 3).
type Pareto struct {
	Alpha float64 // shape (> 0)
	Xm    float64 // scale / minimum (> 0)
}

// Sample draws one value using inverse-transform sampling.
func (p Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	// Guard against u == 0 mapping to +Inf for alpha <= 1 streams.
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(1-u, 1/p.Alpha)
}

// SampleN draws n values.
func (p Pareto) SampleN(r *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Sample(r)
	}
	return out
}

// CDF returns P(X <= x).
func (p Pareto) CDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile returns the smallest x with CDF(x) >= q, for q in [0, 1).
func (p Pareto) Quantile(q float64) float64 {
	if q <= 0 {
		return p.Xm
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return p.Xm / math.Pow(1-q, 1/p.Alpha)
}

// Mean returns the distribution mean, or +Inf when alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var returns the distribution variance, or +Inf when alpha <= 2.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}
