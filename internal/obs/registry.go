package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metrics registry: named families of
// counters, gauges and histograms, each fanned out over label values,
// with Prometheus text-format exposition and an expvar bridge. All
// operations on registered metrics are lock-free atomics; the registry's
// own lock is only taken when registering families or materializing new
// label combinations.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// family is one named metric and its per-label-combination series.
type family struct {
	name   string
	help   string
	kind   familyKind
	labels []string
	bounds []float64 // histogram bucket upper bounds (without +Inf)
	fn     func() float64

	mu     sync.RWMutex
	series map[string]*series
	order  []string // label keys in first-use order
}

// series is the live state of one label combination.
type series struct {
	labelValues []string
	value       atomicFloat     // counter/gauge value
	buckets     []atomic.Uint64 // histogram bucket counts (last = +Inf)
	sum         atomicFloat     // histogram sum
	count       atomic.Uint64   // histogram observation count
	// exemplars holds, per bucket, the most recent exemplar-annotated
	// observation (OpenMetrics-style: a trace ID linking the bucket to a
	// concrete request). Lock-free: an atomic pointer swap per exemplar.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one histogram observation to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
}

// atomicFloat is a float64 updated with CAS — counters and gauges accept
// fractional increments (seconds, dollars), which atomic integers cannot.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// register adds (or returns) a family, panicking on a kind or label
// mismatch with an earlier registration — a programming error.
func (r *Registry) register(name, help string, kind familyKind, labels []string, bounds []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		fn:     fn,
		series: map[string]*series{},
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) a monotonically increasing metric.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil, nil)}
}

// Gauge registers (or fetches) a metric that can go up and down.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil, nil)}
}

// GaugeFunc registers a label-less gauge whose value is read from fn at
// exposition time — for quantities that already live elsewhere (queue
// depth, cache entries, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, nil, nil, fn)
}

// Histogram registers (or fetches) a distribution metric with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels, bounds, nil)}
}

// seriesFor materializes (or fetches) the series of one label combination.
func (f *family) seriesFor(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == kindHistogram {
		s.buckets = make([]atomic.Uint64, len(f.bounds)+1)
		s.exemplars = make([]atomic.Pointer[exemplar], len(f.bounds)+1)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a counter family; With picks one series.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (in registration
// order), creating it at zero on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.fam.seriesFor(labelValues)}
}

// Total sums the family across all series.
func (v *CounterVec) Total() float64 {
	v.fam.mu.RLock()
	defer v.fam.mu.RUnlock()
	var t float64
	for _, s := range v.fam.series {
		t += s.value.Load()
	}
	return t
}

// Counter is one counter series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.value.Add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	c.s.value.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.value.Load() }

// GaugeVec is a gauge family; With picks one series.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.fam.seriesFor(labelValues)}
}

// Gauge is one gauge series.
type Gauge struct{ s *series }

// Add adds v (negative values decrement).
func (g *Gauge) Add(v float64) { g.s.value.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.value.Load() }

// HistogramVec is a histogram family; With picks one series.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{bounds: v.fam.bounds, s: v.fam.seriesFor(labelValues)}
}

// Quantile answers an upper bound on the q-quantile (0 < q ≤ 1) pooled
// across every series of the family — the bucket edge holding the q·N-th
// observation. With no observations it returns 0.
func (v *HistogramVec) Quantile(q float64) float64 {
	f := v.fam
	f.mu.RLock()
	defer f.mu.RUnlock()
	merged := make([]uint64, len(f.bounds)+1)
	var total uint64
	for _, s := range f.series {
		for i := range merged {
			merged[i] += s.buckets[i].Load()
		}
		total += s.count.Load()
	}
	return quantileOf(f.bounds, merged, total, q)
}

// Mean returns the pooled mean across every series (0 when empty).
func (v *HistogramVec) Mean() float64 {
	f := v.fam
	f.mu.RLock()
	defer f.mu.RUnlock()
	var sum float64
	var n uint64
	for _, s := range f.series {
		sum += s.sum.Load()
		n += s.count.Load()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func quantileOf(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	// Clamp the rank to [1, total]: q = 0 would otherwise ask for rank 0
	// (no observation) and q ≥ 1 — or float error in ceil(q·total) — for a
	// rank past the last observation. Clamp the low side before converting:
	// a negative float wraps when cast to uint64.
	r := math.Ceil(q * float64(total))
	if r < 1 {
		r = 1
	}
	rank := uint64(r)
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Histogram is one histogram series.
type Histogram struct {
	bounds []float64
	s      *series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.s.buckets[i].Add(1)
	h.s.count.Add(1)
	h.s.sum.Add(v)
}

// ObserveExemplar records one sample and attaches the trace that
// produced it as the bucket's exemplar — so a p99 bucket on the scrape
// names a concrete request to go look up in the flight recorder. An
// empty trace ID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.s.buckets[i].Add(1)
	h.s.count.Add(1)
	h.s.sum.Add(v)
	if traceID != "" {
		h.s.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// ExponentialBuckets returns n ascending bucket bounds starting at start
// and growing by factor — the standard shape for latency histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: invalid exponential bucket spec")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// in first-use order, so the output is stable between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	typ := map[familyKind]string{
		kindCounter: "counter", kindGauge: "gauge",
		kindGaugeFunc: "gauge", kindHistogram: "histogram",
	}[f.kind]
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)

	if f.kind == kindGaugeFunc {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.fn()))
		return
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, key := range f.order {
		s := f.series[key]
		switch f.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""),
				formatFloat(s.value.Load()))
		case kindHistogram:
			var cum uint64
			for i, bound := range f.bounds {
				cum += s.buckets[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
					labelString(f.labels, s.labelValues, "le", formatFloat(bound)), cum,
					exemplarSuffix(s, i))
			}
			cum += s.buckets[len(f.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
				labelString(f.labels, s.labelValues, "le", "+Inf"), cum,
				exemplarSuffix(s, len(f.bounds)))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), formatFloat(s.sum.Load()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), s.count.Load())
		}
	}
}

// exemplarSuffix renders a bucket's exemplar in the OpenMetrics shape
// (" # {trace_id=\"...\"} value"), or "" when the bucket has none. The
// trailing value stays a plain float so line-oriented scrapers that
// ignore everything after '#' — and ours, which checks the last field is
// numeric — both keep parsing.
func exemplarSuffix(s *series, bucket int) string {
	if s.exemplars == nil {
		return ""
	}
	ex := s.exemplars[bucket].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", ex.traceID, formatFloat(ex.value))
}

// labelString renders {k="v",...}, appending one extra pair when extraK
// is non-empty; it returns "" when there are no pairs at all.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes quotes, backslashes and newlines the way the
		// Prometheus text format wants them.
		fmt.Fprintf(&b, "%s=%q", name, values[i])
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Expvar returns an expvar.Func exposing the registry as a flat JSON
// object — series name (with labels) to value — so that mounting the
// standard /debug/vars handler publishes every metric for free.
func (r *Registry) Expvar() expvar.Func {
	return func() any {
		out := map[string]any{}
		r.mu.RLock()
		defer r.mu.RUnlock()
		for _, f := range r.fams {
			if f.kind == kindGaugeFunc {
				out[f.name] = f.fn()
				continue
			}
			f.mu.RLock()
			for _, key := range f.order {
				s := f.series[key]
				name := f.name + labelString(f.labels, s.labelValues, "", "")
				if f.kind == kindHistogram {
					out[name+"_count"] = s.count.Load()
					out[name+"_sum"] = s.sum.Load()
				} else {
					out[name] = s.value.Load()
				}
			}
			f.mu.RUnlock()
		}
		return out
	}
}

// PublishExpvar publishes the registry under the given expvar name,
// quietly skipping when the name is already taken (expvar.Publish would
// panic — inconvenient for tests that build several servers).
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r.Expvar())
}
