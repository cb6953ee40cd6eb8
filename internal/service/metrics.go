package service

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sla"
)

// latencyBuckets are the planning-latency histogram bounds: geometric from
// 10µs doubling for 28 buckets (≈ 22 min), plenty of headroom for the
// slowest catalog sweep while keeping memory constant under load.
var latencyBuckets = obs.ExponentialBuckets(10e-6, 2, 28)

// endpointOf maps a request path to its label in routes, or "other".
func endpointOf(path string) string {
	for _, rt := range routes {
		if rt.path == path {
			return rt.label
		}
	}
	return "other"
}

// serviceMetrics is the daemon's operational instrumentation, built on the
// obs.Registry so that one set of series backs three views: the Prometheus
// text exposition of GET /metrics, the expvar bridge under /debug/vars,
// and the legacy JSON snapshot (GET /metrics?format=json). All series are
// materialized at construction, so a fresh server already exposes its full
// schema.
type serviceMetrics struct {
	start time.Time
	reg   *obs.Registry

	requests    *obs.CounterVec // wfservd_requests_total{endpoint}
	rejected    *obs.Counter    // wfservd_rejected_total
	timeouts    *obs.Counter    // wfservd_timeouts_total
	panics      *obs.Counter    // wfservd_panics_total
	errors      *obs.Counter    // wfservd_errors_total
	cacheReq    *obs.CounterVec // wfservd_cache_requests_total{result}
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	inflight    *obs.Gauge        // wfservd_inflight
	latency     *obs.HistogramVec // wfservd_plan_duration_seconds{endpoint}
	drainDone   *obs.Counter      // wfservd_drain_completed_total
	simReplays  *obs.Counter      // wfservd_sim_replays_total
	simOutcomes *obs.CounterVec   // wfservd_sim_outcomes_total{kind}

	// SLA search progress: searches by verdict, portfolio candidates by
	// fate, total sampled instances, and the distribution of per-candidate
	// meet probabilities.
	slaSearches   *obs.CounterVec   // wfservd_sla_searches_total{outcome}
	slaCandidates *obs.CounterVec   // wfservd_sla_candidates_total{fate}
	slaInstances  *obs.Counter      // wfservd_sla_instances_total
	slaMeetProb   *obs.HistogramVec // wfservd_sla_meet_probability
}

// simOutcomeKinds are the label values of wfservd_sim_outcomes_total.
var simOutcomeKinds = []string{"event", "transfer", "vm_crash", "task_failure", "retry", "resubmit"}

func newServiceMetrics() *serviceMetrics {
	reg := obs.NewRegistry()
	m := &serviceMetrics{start: time.Now(), reg: reg}

	m.requests = reg.Counter("wfservd_requests_total",
		"HTTP requests seen, by endpoint.", "endpoint")
	// Every label exists from the first scrape.
	for _, rt := range routes {
		m.requests.With(rt.label)
	}
	m.requests.With("other")
	m.rejected = reg.Counter("wfservd_rejected_total",
		"Requests refused by admission control (429).").With()
	m.timeouts = reg.Counter("wfservd_timeouts_total",
		"Planning requests that exceeded their deadline.").With()
	m.panics = reg.Counter("wfservd_panics_total",
		"Planning jobs that panicked, recovered by their worker.").With()
	m.errors = reg.Counter("wfservd_errors_total",
		"Requests answered 4xx/5xx, excluding 429 rejections.").With()
	m.cacheReq = reg.Counter("wfservd_cache_requests_total",
		"Result-cache lookups, by outcome.", "result")
	m.cacheHits = m.cacheReq.With("hit")
	m.cacheMisses = m.cacheReq.With("miss")
	m.inflight = reg.Gauge("wfservd_inflight",
		"Planning jobs currently admitted to the pool.").With()
	m.latency = reg.Histogram("wfservd_plan_duration_seconds",
		"End-to-end planning latency of cache misses, by endpoint.",
		latencyBuckets, "endpoint")
	m.drainDone = reg.Counter("wfservd_drain_completed_total",
		"Requests that completed after draining began.").With()
	m.simReplays = reg.Counter("wfservd_sim_replays_total",
		"Discrete-event simulator replays run for requests.").With()
	m.simOutcomes = reg.Counter("wfservd_sim_outcomes_total",
		"Simulator replay outcomes, by kind.", "kind")
	for _, k := range simOutcomeKinds {
		m.simOutcomes.With(k)
	}
	m.slaSearches = reg.Counter("wfservd_sla_searches_total",
		"SLA portfolio searches run, by verdict.", "outcome")
	m.slaSearches.With("met")
	m.slaSearches.With("missed")
	m.slaCandidates = reg.Counter("wfservd_sla_candidates_total",
		"SLA portfolio candidates considered, by fate.", "fate")
	m.slaCandidates.With("sampled")
	m.slaCandidates.With("pruned")
	m.slaInstances = reg.Counter("wfservd_sla_instances_total",
		"Template instances sampled and scheduled by SLA searches.").With()
	m.slaMeetProb = reg.Histogram("wfservd_sla_meet_probability",
		"Per-candidate empirical deadline-meet probabilities.",
		meetProbBuckets())
	m.slaMeetProb.With()
	return m
}

// meetProbBuckets covers [0, 1] in 0.05 steps — meet probabilities live on
// the unit interval, so linear resolution beats the latency histograms'
// geometric spacing.
func meetProbBuckets() []float64 {
	out := make([]float64, 0, 20)
	for i := 1; i <= 20; i++ {
		out = append(out, float64(i)*0.05)
	}
	return out
}

// registerRuntime adds the gauge functions that read live server state
// (queue geometry, cache size, uptime). Split from newServiceMetrics
// because the pool and cache do not exist yet when the metrics do.
func (m *serviceMetrics) registerRuntime(s *Server) {
	m.reg.GaugeFunc("wfservd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	m.reg.GaugeFunc("wfservd_goroutines",
		"Goroutines live in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	m.reg.GaugeFunc("wfservd_queue_depth",
		"Jobs waiting in the submission queue.",
		func() float64 { return float64(s.pool.Depth()) })
	m.reg.GaugeFunc("wfservd_queue_capacity",
		"Submission-queue capacity.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	m.reg.GaugeFunc("wfservd_workers",
		"Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	m.reg.GaugeFunc("wfservd_cache_entries",
		"Entries in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
}

// recordSLA feeds one portfolio search's progress counters into the
// wfservd_sla_* families.
func (m *serviceMetrics) recordSLA(met bool, sr *sla.SearchResult) {
	if met {
		m.slaSearches.With("met").Inc()
	} else {
		m.slaSearches.With("missed").Inc()
	}
	m.slaCandidates.With("sampled").Add(float64(len(sr.Results)))
	m.slaCandidates.With("pruned").Add(float64(len(sr.Pruned)))
	m.slaInstances.Add(float64(sr.Sampled))
	for i := range sr.Results {
		m.slaMeetProb.With().Observe(sr.Results[i].MeetProbability)
	}
}

// recordSim feeds one simulator replay's outcome counts into the
// wfservd_sim_* families.
func (m *serviceMetrics) recordSim(events, transfers, crashes, failures, retries, resubmits int) {
	m.simReplays.Inc()
	m.simOutcomes.With("event").Add(float64(events))
	m.simOutcomes.With("transfer").Add(float64(transfers))
	m.simOutcomes.With("vm_crash").Add(float64(crashes))
	m.simOutcomes.With("task_failure").Add(float64(failures))
	m.simOutcomes.With("retry").Add(float64(retries))
	m.simOutcomes.With("resubmit").Add(float64(resubmits))
}

// MetricsSnapshot is the JSON document served by GET /metrics?format=json —
// the pre-registry schema, kept for scripted consumers, now answered from
// the registry's series.
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
	QueueDepth       int     `json:"queue_depth"`
	QueueCapacity    int     `json:"queue_capacity"`
	Workers          int     `json:"workers"`
	Inflight         int64   `json:"inflight"`
	LatencyMeanS     float64 `json:"latency_mean_seconds"`
	LatencyP50S      float64 `json:"latency_p50_seconds"`
	LatencyP95S      float64 `json:"latency_p95_seconds"`
	LatencyP99S      float64 `json:"latency_p99_seconds"`
}

func (m *serviceMetrics) snapshot(queueDepth, queueCap, workers, cacheLen int) MetricsSnapshot {
	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return MetricsSnapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		RequestsTotal:    uint64(m.requests.Total()),
		ScheduleRequests: uint64(m.requests.With("schedule").Value()),
		CompareRequests:  uint64(m.requests.With("compare").Value()),
		RejectedTotal:    uint64(m.rejected.Value()),
		TimeoutsTotal:    uint64(m.timeouts.Value()),
		ErrorsTotal:      uint64(m.errors.Value()),
		CacheHits:        uint64(hits),
		CacheMisses:      uint64(misses),
		CacheHitRatio:    ratio,
		CacheEntries:     cacheLen,
		QueueDepth:       queueDepth,
		QueueCapacity:    queueCap,
		Workers:          workers,
		Inflight:         int64(m.inflight.Value()),
		LatencyMeanS:     m.latency.Mean(),
		LatencyP50S:      m.latency.Quantile(0.50),
		LatencyP95S:      m.latency.Quantile(0.95),
		LatencyP99S:      m.latency.Quantile(0.99),
	}
}
