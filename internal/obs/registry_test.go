package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("requests_total", "requests", "endpoint")
	v.With("schedule").Inc()
	v.With("schedule").Add(2)
	v.With("compare").Inc()
	if got := v.With("schedule").Value(); got != 3 {
		t.Errorf("schedule = %v, want 3", got)
	}
	if got := v.Total(); got != 4 {
		t.Errorf("Total = %v, want 4", got)
	}
	// Registering the same family again returns the same series.
	if got := r.Counter("requests_total", "requests", "endpoint").With("schedule").Value(); got != 3 {
		t.Errorf("re-registered family lost state: %v", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c", "h").With().Add(-1)
}

func TestRegisterShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", "a")
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	r.Gauge("m", "h", "a")
}

func TestLabelArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("m", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label count did not panic")
		}
	}()
	v.With("only-one")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth").With()
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("uptime", "seconds up", func() float64 { return 42.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "uptime 42.5\n") {
		t.Errorf("gauge func missing:\n%s", b.String())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("latency", "seconds", []float64{0.1, 1, 10}, "endpoint")
	h := v.With("schedule")
	for _, s := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(s)
	}
	if got := h.s.count.Load(); got != 5 {
		t.Errorf("Count = %d", got)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want bucket edge 1", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("p100 = %v, want top finite edge 10 (overflow clamps)", got)
	}
	// Vec-level pooling across series.
	v.With("compare").Observe(0.05)
	if got := v.Quantile(0.5); got != 1 {
		t.Errorf("pooled p50 = %v", got)
	}
	wantMean := (0.05 + 0.5 + 0.5 + 5 + 100 + 0.05) / 6
	if got := v.Mean(); got != wantMean {
		t.Errorf("pooled mean = %v, want %v", got, wantMean)
	}
}

// TestHistogramQuantileExtremes pins the rank clamp at the quantile
// extremes: q = 0 means "the bucket of the first observation" (rank
// clamps up to 1), q ≥ 1 the bucket of the last (rank clamps down to
// total), and neither may walk past the bucket array.
func TestHistogramQuantileExtremes(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("latency", "seconds", []float64{0.1, 1, 10}, "endpoint")
	h := v.With("schedule")
	for _, s := range []float64{0.05, 0.5, 5} {
		h.Observe(s)
	}
	cases := []struct{ q, want float64 }{
		{0, 0.1},    // rank 0 clamps to the first observation's bucket
		{0.5, 1},    // the median observation
		{0.99, 10},  // upper bound of the last observation
		{1, 10},     // exactly the last rank
		{1.5, 10},   // out-of-domain q clamps to the last rank
		{-0.5, 0.1}, // negative q clamps to the first rank
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := v.Quantile(c.q); got != c.want {
			t.Errorf("pooled Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A single observation in the overflow bucket: every q answers the top
	// finite edge, including the formerly risky q = 1.
	o := r.Histogram("over", "s", []float64{1, 2}).With()
	o.Observe(99)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := o.Quantile(q); got != 2 {
			t.Errorf("overflow Quantile(%v) = %v, want 2", q, got)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("empty", "h", []float64{1})
	if v.Quantile(0.9) != 0 || v.Mean() != 0 || v.With().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile/mean != 0")
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("descending buckets did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "h", []float64{2, 1})
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid spec did not panic")
		}
	}()
	ExponentialBuckets(0, 2, 4)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs run", "kind")
	c.With("fast").Add(2)
	c.With(`qu"ote`).Inc() // label value needing escaping
	h := r.Histogram("lat", "latency", []float64{1, 2})
	h.With().Observe(0.5)
	h.With().Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP jobs_total jobs run\n# TYPE jobs_total counter\n",
		`jobs_total{kind="fast"} 2`,
		`jobs_total{kind="qu\"ote"} 1`,
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 1`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 3.5",
		"lat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name: jobs_total before lat.
	if strings.Index(out, "jobs_total") > strings.Index(out, "# HELP lat") {
		t.Error("families not sorted by name")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "h", "w")
	h := r.Histogram("d", "h", ExponentialBuckets(0.001, 10, 4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w%2))
			for i := 0; i < 1000; i++ {
				c.With(name).Inc()
				h.With().Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Total(); got != 8000 {
		t.Errorf("Total = %v, want 8000", got)
	}
	if got := h.With().s.count.Load(); got != 8000 {
		t.Errorf("Count = %v, want 8000", got)
	}
}

func TestExpvarBridge(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "h", "k").With("x").Add(7)
	r.GaugeFunc("up", "h", func() float64 { return 1 })
	r.Histogram("lat", "h", []float64{1}).With().Observe(0.5)

	// expvar.Func renders via its String method; round-trip through JSON.
	var out map[string]any
	if err := json.Unmarshal([]byte(r.Expvar().String()), &out); err != nil {
		t.Fatal(err)
	}
	if got := out[`hits{k="x"}`]; got != 7.0 {
		t.Errorf("hits = %v", got)
	}
	if got := out["up"]; got != 1.0 {
		t.Errorf("up = %v", got)
	}
	if got := out["lat_count"]; got != 1.0 {
		t.Errorf("lat_count = %v", got)
	}

	// Publishing twice under one name must not panic.
	r.PublishExpvar("obs_registry_test")
	r.PublishExpvar("obs_registry_test")
}
