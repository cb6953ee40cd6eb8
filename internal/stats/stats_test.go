package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

// TestSplitmix64Reference pins the stream to the published splitmix64
// outputs for seed 0, and Hash to its definition, so the fault, market,
// online and span-ID seeds built on them keep every bit.
func TestSplitmix64Reference(t *testing.T) {
	r := NewRNG(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Errorf("output %d = %#x, want %#x", i, got, want)
		}
	}
	g := GoldenGamma
	if got := Hash(); got != g {
		t.Errorf("Hash() = %#x, want %#x", got, g)
	}
	if got, want := Hash(7, 9), Mix64(Mix64(g+7+g)+9+g); got != want {
		t.Errorf("Hash(7, 9) = %#x, want %#x", got, want)
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		buckets[int(f*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("only %d distinct values seen, want 7", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	// Child stream must differ from the parent continuation.
	diff := false
	for i := 0; i < 100; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split stream identical to parent stream")
	}
}

func TestParetoSampleAboveScale(t *testing.T) {
	p := Pareto{Alpha: 2, Xm: 500}
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		x := p.Sample(r)
		if x < p.Xm {
			t.Fatalf("sample %v below scale %v", x, p.Xm)
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("sample not finite: %v", x)
		}
	}
}

func TestParetoSampleMean(t *testing.T) {
	// The paper's execution-time distribution: alpha=2, xm=500 -> mean 1000.
	p := Pareto{Alpha: 2, Xm: 500}
	r := NewRNG(17)
	s := Summarize(p.SampleN(r, 400000))
	want := p.Mean()
	if math.Abs(s.Mean-want)/want > 0.05 {
		t.Errorf("sample mean = %v, want ~%v", s.Mean, want)
	}
}

func TestParetoCDFQuantileRoundTrip(t *testing.T) {
	p := Pareto{Alpha: 1.3, Xm: 500}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := p.Quantile(q)
		got := p.CDF(x)
		if math.Abs(got-q) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestParetoCDFBelowScale(t *testing.T) {
	p := Pareto{Alpha: 2, Xm: 500}
	if got := p.CDF(499); got != 0 {
		t.Errorf("CDF(499) = %v, want 0", got)
	}
	if got := p.CDF(500); got != 0 {
		t.Errorf("CDF(500) = %v, want 0", got)
	}
}

func TestParetoMoments(t *testing.T) {
	if m := (Pareto{Alpha: 1, Xm: 500}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("alpha=1 mean = %v, want +Inf", m)
	}
	if v := (Pareto{Alpha: 2, Xm: 500}).Var(); !math.IsInf(v, 1) {
		t.Errorf("alpha=2 var = %v, want +Inf", v)
	}
	if v := (Pareto{Alpha: 3, Xm: 500}).Var(); math.IsInf(v, 1) || v <= 0 {
		t.Errorf("alpha=3 var = %v, want finite positive", v)
	}
}

func TestParetoEmpiricalMatchesAnalyticCDF(t *testing.T) {
	// Reproduces the shape of paper Fig. 3: the empirical CDF of the sampled
	// execution times must track the analytic Pareto CDF.
	p := Pareto{Alpha: 2, Xm: 500}
	r := NewRNG(23)
	e := NewECDF(p.SampleN(r, 100000))
	for _, x := range []float64{600, 1000, 1500, 2000, 3000, 4000} {
		if d := math.Abs(e.At(x) - p.CDF(x)); d > 0.01 {
			t.Errorf("at x=%v: |ECDF-CDF| = %v > 0.01", x, d)
		}
	}
}

func TestQuickParetoSampleNeverBelowScale(t *testing.T) {
	f := func(seed uint64, alphaRaw, xmRaw uint8) bool {
		alpha := 0.5 + float64(alphaRaw)/64.0 // [0.5, 4.5]
		xm := 1 + float64(xmRaw)*10           // [1, 2551]
		p := Pareto{Alpha: alpha, Xm: xm}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			if p.Sample(r) < xm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		p := Pareto{Alpha: 2, Xm: 500}
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return p.CDF(a) <= p.CDF(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Sum != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 || s.Sum != 15 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Std != 0 {
		t.Errorf("Summarize single = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestPercentileExtremes pins the bounds guard at the quantile extremes:
// q = 0 and q = 1 must hit the first and last rank exactly, never index
// out of range, for any sample size including 1.
func TestPercentileExtremes(t *testing.T) {
	samples := [][]float64{
		{7},
		{10, 20},
		{10, 20, 30, 40},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	for _, sorted := range samples {
		n := len(sorted)
		cases := []struct{ q, want float64 }{
			{0, sorted[0]},
			{0.5, Percentile(sorted, 0.5)}, // self-consistent, must not panic
			{0.99, Percentile(sorted, 0.99)},
			{1, sorted[n-1]},
			// Out-of-domain inputs clamp rather than index out of range.
			{-0.1, sorted[0]},
			{1.1, sorted[n-1]},
			// q just below 1: interpolates within the top interval.
			{math.Nextafter(1, 0), sorted[n-1]},
		}
		for _, c := range cases {
			got := Percentile(sorted, c.q)
			if math.Abs(got-c.want) > 1e-9 {
				t.Errorf("n=%d: Percentile(%v) = %v, want %v", n, c.q, got, c.want)
			}
			if got < sorted[0] || got > sorted[n-1] {
				t.Errorf("n=%d: Percentile(%v) = %v outside sample range", n, c.q, got)
			}
		}
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if len(e.sorted) != 4 {
		t.Errorf("sample size = %d", len(e.sorted))
	}
}

func TestQuickECDFMonotone(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		e := NewECDF(xs)
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Range(0, 10) // mean 5
	}
	ci := BootstrapMeanCI(xs, 0.95, 2000, 1)
	if !ci.Contains(Summarize(xs).Mean) {
		t.Errorf("CI %v misses the sample mean %v", ci, Summarize(xs).Mean)
	}
	if ci.Lo > 5.5 || ci.Hi < 4.5 {
		t.Errorf("CI %v implausible for uniform(0,10)", ci)
	}
	if ci.Hi <= ci.Lo {
		t.Errorf("degenerate CI %v", ci)
	}
	// Deterministic.
	if ci2 := BootstrapMeanCI(xs, 0.95, 2000, 1); ci2 != ci {
		t.Error("bootstrap not deterministic for equal seeds")
	}
	// Wider at higher confidence.
	ci99 := BootstrapMeanCI(xs, 0.99, 2000, 1)
	if ci99.Hi-ci99.Lo <= ci.Hi-ci.Lo {
		t.Errorf("99%% CI %v not wider than 95%% %v", ci99, ci)
	}
	if ci.String() == "" || !ci.Contains((ci.Lo+ci.Hi)/2) {
		t.Error("CI helpers broken")
	}
}

func TestBootstrapMeanCIPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":     func() { BootstrapMeanCI(nil, 0.95, 100, 1) },
		"resamples": func() { BootstrapMeanCI([]float64{1}, 0.95, 0, 1) },
		"level":     func() { BootstrapMeanCI([]float64{1}, 1.5, 100, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBootstrapSingleValue(t *testing.T) {
	ci := BootstrapMeanCI([]float64{7}, 0.9, 50, 1)
	if ci.Lo != 7 || ci.Hi != 7 {
		t.Errorf("single-value CI = %v, want [7, 7]", ci)
	}
}
