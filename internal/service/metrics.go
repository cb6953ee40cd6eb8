package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/sla"
)

// serviceMetrics is the daemon's operational instrumentation: a fixed set
// of series, each an atomic cell on this struct, with every label value
// known when New runs. Two views read the same cells: the Prometheus text
// of GET /metrics (writePrometheus) and the JSON snapshot of GET
// /metrics?format=json (Metrics). A request updates a cell with one
// atomic add: no lock, no lookup.
type serviceMetrics struct {
	start time.Time

	// endpoints are the route labels in route order, then "other": the
	// label values of requests, which endpointOf indexes.
	endpoints []string
	requests  []atomic.Uint64 // wfservd_requests_total{endpoint}
	// latency is wfservd_plan_duration_seconds{endpoint}: one histogram
	// per planning route, in route order, added by planner as New builds
	// the routes.
	latency []*histogram

	cacheHits   atomic.Uint64 // wfservd_cache_requests_total{result="hit"}
	cacheMisses atomic.Uint64 // wfservd_cache_requests_total{result="miss"}
	rejected    atomic.Uint64 // wfservd_rejected_total
	timeouts    atomic.Uint64 // wfservd_timeouts_total
	panics      atomic.Uint64 // wfservd_panics_total
	errors      atomic.Uint64 // wfservd_errors_total
	drainDone   atomic.Uint64 // wfservd_drain_completed_total
	inflight    atomic.Int64  // wfservd_inflight

	simReplays  atomic.Uint64                       // wfservd_sim_replays_total
	simOutcomes [len(simOutcomeKinds)]atomic.Uint64 // wfservd_sim_outcomes_total{kind}

	// SLA search progress: searches by verdict, portfolio candidates by
	// fate, total sampled instances, and the distribution of per-candidate
	// meet probabilities.
	slaMet, slaMissed     atomic.Uint64 // wfservd_sla_searches_total{outcome}
	slaSampled, slaPruned atomic.Uint64 // wfservd_sla_candidates_total{fate}
	slaInstances          atomic.Uint64 // wfservd_sla_instances_total
	slaMeetProb           *histogram    // wfservd_sla_meet_probability
}

// simOutcomeKinds are the label values of wfservd_sim_outcomes_total.
var simOutcomeKinds = [...]string{"event", "transfer", "vm_crash", "task_failure", "retry", "resubmit"}

// latencyBounds are the planning-latency histogram bounds: geometric from
// 10µs doubling for 28 buckets (≈ 22 min), plenty of headroom for the
// slowest catalog sweep while keeping memory constant under load.
var latencyBounds = func() []float64 {
	out := make([]float64, 28)
	b := 10e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}()

// meetProbBounds cover [0, 1] in 0.05 steps: meet probabilities live on
// the unit interval, so linear resolution beats the latency histograms'
// geometric spacing.
var meetProbBounds = func() []float64 {
	out := make([]float64, 20)
	for i := range out {
		out[i] = float64(i+1) * 0.05
	}
	return out
}()

func newServiceMetrics() *serviceMetrics {
	m := &serviceMetrics{start: time.Now(), slaMeetProb: newHistogram(meetProbBounds, "")}
	for _, rt := range routes {
		m.endpoints = append(m.endpoints, rt.label)
	}
	m.endpoints = append(m.endpoints, "other")
	m.requests = make([]atomic.Uint64, len(m.endpoints))
	return m
}

// endpointOf maps a request path to its route's index in endpoints, or to
// the index of "other".
func endpointOf(path string) int {
	for i, rt := range routes {
		if rt.path == path {
			return i
		}
	}
	return len(routes)
}

// addLatency adds the planning-latency histogram of one endpoint.
func (m *serviceMetrics) addLatency(endpoint string) *histogram {
	h := newHistogram(latencyBounds, labelPair("endpoint", endpoint))
	m.latency = append(m.latency, h)
	return h
}

// recordSLA feeds one portfolio search's progress counters into the
// wfservd_sla_* families.
func (m *serviceMetrics) recordSLA(met bool, sr *sla.SearchResult) {
	if met {
		m.slaMet.Add(1)
	} else {
		m.slaMissed.Add(1)
	}
	m.slaSampled.Add(uint64(len(sr.Results)))
	m.slaPruned.Add(uint64(len(sr.Pruned)))
	m.slaInstances.Add(uint64(sr.Sampled))
	for i := range sr.Results {
		m.slaMeetProb.observe(sr.Results[i].MeetProbability)
	}
}

// recordSim feeds one simulator replay's outcome counts, in
// simOutcomeKinds order, into the wfservd_sim_* families.
func (m *serviceMetrics) recordSim(events, transfers, crashes, failures, retries, resubmits int) {
	m.simReplays.Add(1)
	for i, n := range [...]int{events, transfers, crashes, failures, retries, resubmits} {
		m.simOutcomes[i].Add(uint64(n))
	}
}

// histogram is one fixed-bucket distribution series.
type histogram struct {
	labels  string // its rendered label pairs, "" for none
	bounds  []float64
	buckets []atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64, labels string) *histogram {
	return &histogram{labels: labels, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// observe records one sample in the first bucket whose bound is at least v.
func (h *histogram) observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// quantile answers an upper bound on the q-quantile pooled across hs,
// which share their bounds: the bucket edge holding the q·N-th
// observation, the top finite edge for one past it. With no observations
// it returns 0.
func quantile(hs []*histogram, q float64) float64 {
	var total uint64
	for _, h := range hs {
		total += h.count.Load()
	}
	if total == 0 {
		return 0
	}
	// Clamp the rank to [1, total]: q = 0 would otherwise ask for rank 0
	// (no observation) and q ≥ 1, or float error in ceil(q·total), for a
	// rank past the last observation. Clamp the low side before
	// converting: a negative float wraps when cast to uint64.
	r := math.Max(math.Ceil(q*float64(total)), 1)
	rank := min(uint64(r), total)
	bounds := hs[0].bounds
	var cum uint64
	for i := range bounds {
		for _, h := range hs {
			cum += h.buckets[i].Load()
		}
		if cum >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// mean returns the mean pooled across hs, summed in their order (0 when
// empty).
func mean(hs []*histogram) float64 {
	var sum float64
	var n uint64
	for _, h := range hs {
		sum += math.Float64frombits(h.sum.Load())
		n += h.count.Load()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MetricsSnapshot is the JSON document served by GET /metrics?format=json,
// kept for scripted consumers and read from the same cells as the
// Prometheus text.
type MetricsSnapshot struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	RequestsTotal    uint64  `json:"requests_total"`
	ScheduleRequests uint64  `json:"schedule_requests"`
	CompareRequests  uint64  `json:"compare_requests"`
	RejectedTotal    uint64  `json:"rejected_total"`
	TimeoutsTotal    uint64  `json:"timeouts_total"`
	ErrorsTotal      uint64  `json:"errors_total"`
	CacheHits        uint64  `json:"cache_hits"`
	CacheMisses      uint64  `json:"cache_misses"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	CacheEntries     int     `json:"cache_entries"`
	CacheBytes       int     `json:"cache_bytes"`
	QueueDepth       int     `json:"queue_depth"`
	QueueCapacity    int     `json:"queue_capacity"`
	Workers          int     `json:"workers"`
	Inflight         int64   `json:"inflight"`
	LatencyMeanS     float64 `json:"latency_mean_seconds"`
	LatencyP50S      float64 `json:"latency_p50_seconds"`
	LatencyP95S      float64 `json:"latency_p95_seconds"`
	LatencyP99S      float64 `json:"latency_p99_seconds"`
}

// Metrics returns a point-in-time snapshot of the operational counters,
// the document GET /metrics?format=json serves.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.met
	entries, bytes := s.cache.Size()
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		RejectedTotal: m.rejected.Load(),
		TimeoutsTotal: m.timeouts.Load(),
		ErrorsTotal:   m.errors.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		CacheEntries:  entries,
		CacheBytes:    bytes,
		QueueDepth:    s.pool.Depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Inflight:      m.inflight.Load(),
		LatencyMeanS:  mean(m.latency),
		LatencyP50S:   quantile(m.latency, 0.50),
		LatencyP95S:   quantile(m.latency, 0.95),
		LatencyP99S:   quantile(m.latency, 0.99),
	}
	for i, ep := range m.endpoints {
		n := m.requests[i].Load()
		snap.RequestsTotal += n
		switch ep {
		case "schedule":
			snap.ScheduleRequests = n
		case "compare":
			snap.CompareRequests = n
		}
	}
	if looked := snap.CacheHits + snap.CacheMisses; looked > 0 {
		snap.CacheHitRatio = float64(snap.CacheHits) / float64(looked)
	}
	return snap
}

// writePrometheus renders every series in the Prometheus text exposition
// format, version 0.0.4: families sorted by name, series in label order
// (routes in route order), and nothing after a sample's value.
func (s *Server) writePrometheus(w io.Writer) error {
	m := s.met
	var e expo
	entries, bytes := s.cache.Size()
	e.gauge("wfservd_cache_bytes", "Bytes the result cache retains: its bodies plus a fixed overhead per entry.", float64(bytes))
	e.gauge("wfservd_cache_entries", "Entries in the result cache.", float64(entries))
	e.head("wfservd_cache_requests_total", "Result-cache lookups, by outcome.", "counter")
	e.sample("wfservd_cache_requests_total", `result="hit"`, float64(m.cacheHits.Load()))
	e.sample("wfservd_cache_requests_total", `result="miss"`, float64(m.cacheMisses.Load()))
	e.counter("wfservd_drain_completed_total", "Requests that completed after draining began.", &m.drainDone)
	e.counter("wfservd_errors_total", "Requests answered 4xx/5xx, excluding 429 rejections.", &m.errors)
	e.gauge("wfservd_goroutines", "Goroutines live in the process.", float64(runtime.NumGoroutine()))
	e.gauge("wfservd_inflight", "Planning jobs currently admitted to the pool.", float64(m.inflight.Load()))
	e.counter("wfservd_panics_total", "Planning jobs that panicked, recovered by their worker.", &m.panics)
	e.head("wfservd_plan_duration_seconds", "End-to-end planning latency of cache misses, by endpoint.", "histogram")
	for _, h := range m.latency {
		e.histogram("wfservd_plan_duration_seconds", h)
	}
	e.gauge("wfservd_queue_capacity", "Submission-queue capacity.", float64(s.cfg.QueueDepth))
	e.gauge("wfservd_queue_depth", "Jobs waiting in the submission queue.", float64(s.pool.Depth()))
	e.counter("wfservd_rejected_total", "Requests refused by admission control (429).", &m.rejected)
	e.head("wfservd_requests_total", "HTTP requests seen, by endpoint.", "counter")
	for i, ep := range m.endpoints {
		e.sample("wfservd_requests_total", labelPair("endpoint", ep), float64(m.requests[i].Load()))
	}
	e.head("wfservd_sim_outcomes_total", "Simulator replay outcomes, by kind.", "counter")
	for i, k := range simOutcomeKinds {
		e.sample("wfservd_sim_outcomes_total", labelPair("kind", k), float64(m.simOutcomes[i].Load()))
	}
	e.counter("wfservd_sim_replays_total", "Discrete-event simulator replays run for requests.", &m.simReplays)
	e.head("wfservd_sla_candidates_total", "SLA portfolio candidates considered, by fate.", "counter")
	e.sample("wfservd_sla_candidates_total", `fate="sampled"`, float64(m.slaSampled.Load()))
	e.sample("wfservd_sla_candidates_total", `fate="pruned"`, float64(m.slaPruned.Load()))
	e.counter("wfservd_sla_instances_total", "Template instances sampled and scheduled by SLA searches.", &m.slaInstances)
	e.head("wfservd_sla_meet_probability", "Per-candidate empirical deadline-meet probabilities.", "histogram")
	e.histogram("wfservd_sla_meet_probability", m.slaMeetProb)
	e.head("wfservd_sla_searches_total", "SLA portfolio searches run, by verdict.", "counter")
	e.sample("wfservd_sla_searches_total", `outcome="met"`, float64(m.slaMet.Load()))
	e.sample("wfservd_sla_searches_total", `outcome="missed"`, float64(m.slaMissed.Load()))
	e.counter("wfservd_timeouts_total", "Planning requests that exceeded their deadline.", &m.timeouts)
	e.gauge("wfservd_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds())
	e.gauge("wfservd_workers", "Worker-pool size.", float64(s.cfg.Workers))
	_, err := w.Write(e)
	return err
}

// expo accumulates Prometheus text exposition.
type expo []byte

// head opens a family with its HELP and TYPE lines.
func (e *expo) head(name, help, typ string) {
	*e = fmt.Appendf(*e, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// series appends a sample's name, its {labels} when there are any, and
// the space before the value.
func (e *expo) series(name, labels string) {
	*e = append(*e, name...)
	if labels != "" {
		*e = append(append(append(*e, '{'), labels...), '}')
	}
	*e = append(*e, ' ')
}

// sample appends one sample with a float value.
func (e *expo) sample(name, labels string, v float64) {
	e.series(name, labels)
	*e = append(strconv.AppendFloat(*e, v, 'g', -1, 64), '\n')
}

// count appends one sample with an integer value: a histogram's bucket or
// count.
func (e *expo) count(name, labels string, n uint64) {
	e.series(name, labels)
	*e = append(strconv.AppendUint(*e, n, 10), '\n')
}

// counter appends a label-less counter family.
func (e *expo) counter(name, help string, c *atomic.Uint64) {
	e.head(name, help, "counter")
	e.sample(name, "", float64(c.Load()))
}

// gauge appends a label-less gauge family.
func (e *expo) gauge(name, help string, v float64) {
	e.head(name, help, "gauge")
	e.sample(name, "", v)
}

// histogram appends one histogram series: its cumulative buckets, its sum
// and its count.
func (e *expo) histogram(name string, h *histogram) {
	prefix := h.labels
	if prefix != "" {
		prefix += ","
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		e.count(name+"_bucket", prefix+labelPair("le", le), cum)
	}
	e.sample(name+"_sum", h.labels, math.Float64frombits(h.sum.Load()))
	e.count(name+"_count", h.labels, h.count.Load())
}

// labelPair renders one label pair, its value quoted and escaped the way
// the text format wants.
func labelPair(name, value string) string { return name + "=" + strconv.Quote(value) }
