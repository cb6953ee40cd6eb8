// Package service is the scheduling-as-a-service layer: a long-running
// HTTP/JSON front end over the repository's planners, built for load
// rather than one-shot CLI runs. The moving parts:
//
//   - a fixed-size worker pool (default GOMAXPROCS) draining a bounded
//     submission queue, with explicit admission control — a full queue
//     answers 429 + Retry-After instead of accepting unbounded work;
//   - a sharded LRU result cache keyed by spec.Key, the SHA-256 of the
//     request's validated internal/spec problem, so submissions that
//     describe the same problem are answered without re-planning,
//     byte-for-byte identically;
//   - per-request timeouts and context cancellation;
//   - operational introspection: GET /metrics serves a fixed set of
//     series in Prometheus text format (request/cache/queue counters plus
//     a planning-latency histogram per endpoint), each an atomic cell
//     with every label value known at New; ?format=json keeps the legacy
//     snapshot document, read from the same cells. Structured request
//     logs flow through log/slog with per-request IDs, and every
//     request's trace (cache lookup, queue wait, plan) lands in the
//     internal/obs flight recorder behind GET /debug/flight.
//
// Endpoints: POST /v1/schedule (one workflow, one strategy), POST
// /v1/compare (one workflow, the whole 19-strategy catalog via
// internal/core), GET /v1/catalog (valid names), GET /metrics,
// GET /healthz. The daemon around this package is cmd/wfservd.
package service

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: Fill
// substitutes production defaults.
type Config struct {
	// Workers is the worker-pool size; 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the submission queue; 0 selects 4x Workers.
	QueueDepth int
	// CacheSize bounds the result cache (entries); 0 selects 4096.
	CacheSize int
	// RequestTimeout bounds one planning request end to end; 0 selects
	// 30 seconds.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body; 0 selects 8 MiB.
	MaxBodyBytes int64
	// Logger receives one structured line per request (id, method, path,
	// status, duration). Nil disables request logging.
	Logger *slog.Logger
	// FlightSize bounds the always-on flight recorder: the last N requests
	// (trace, route, status, outcome, spans) kept for GET /debug/flight.
	// 0 selects 256.
	FlightSize int
}

// Fill substitutes defaults for zero fields and returns the config.
func (c Config) Fill() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 256
	}
	return c
}

// Server is one scheduling service instance.
type Server struct {
	cfg      Config
	pool     *pool
	cache    *cache
	met      *serviceMetrics
	mux      *http.ServeMux
	flight   *obs.Flight
	logger   *slog.Logger
	reqSeq   atomic.Uint64 // request-ID allocator
	active   atomic.Int64  // requests currently inside Handler
	draining atomic.Bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.Fill()
	s := &Server{
		cfg:    cfg,
		cache:  newCache(cfg.CacheSize),
		met:    newServiceMetrics(),
		mux:    http.NewServeMux(),
		flight: obs.NewFlight(cfg.FlightSize),
		logger: cfg.Logger,
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, func(*panicError) { s.met.panics.Add(1) })
	for _, rt := range routes {
		s.mux.HandleFunc(rt.path, rt.handler(s, rt.label))
	}
	return s
}

// route is one endpoint of the daemon: the path New registers, the label
// its requests carry in wfservd_requests_total, in flight records and,
// for a planning endpoint, in the latency series, and its handler.
type route struct {
	path, label string
	handler     func(s *Server, label string) http.HandlerFunc
}

// routes is every endpoint the daemon serves; requests to any other path
// are labelled "other".
var routes = []route{
	{"/v1/schedule", "schedule", planner((*ScheduleRequest).spec, (*Server).planSchedule)},
	{"/v1/compare", "compare", planner((*CompareRequest).spec, (*Server).planCompare)},
	{"/v1/sla", "sla", planner((*SLARequest).spec, (*Server).planSLA)},
	{"/v1/online", "online", planner((*OnlineRequest).spec, (*Server).planOnline)},
	{"/v1/catalog", "catalog", method((*Server).handleCatalog)},
	{"/metrics", "metrics", method((*Server).handleMetrics)},
	{"/healthz", "healthz", method((*Server).handleHealthz)},
	{"/debug/flight", "flight", method((*Server).handleFlight)},
}

// statusWriter captures the response status for the request log, and
// whether the request's plan panicked, which the status alone (500) does
// not tell apart from other failures.
type statusWriter struct {
	http.ResponseWriter
	code     int
	panicked bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the service's HTTP handler: per-request accounting,
// request-ID assignment (honoring an inbound X-Request-ID), trace-context
// propagation, and one structured log line per request when a logger is
// configured.
//
// Every request gets a trace: the inbound W3C traceparent header is
// honored (its trace ID continues, its span ID parents the root span);
// without one the trace ID is derived deterministically from the request
// ID, so a replayed request traces identically. The response always
// carries a traceparent header naming the root span, and the completed
// trace lands in the flight recorder with the request's route, status and
// outcome.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		traceID, remote, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID = obs.DeriveTraceID("wfservd", id)
		}
		trace := obs.NewTrace(traceID, remote, func() float64 {
			return time.Since(s.met.start).Seconds()
		})
		root := trace.StartSpan(r.Method+" "+r.URL.Path, obs.SpanID{})
		root.SetAttr("request_id", id)

		ep := endpointOf(r.URL.Path)
		s.met.requests[ep].Add(1)
		route := s.met.endpoints[ep]
		s.active.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		w.Header().Set("X-Request-ID", id)
		w.Header().Set("traceparent", obs.Traceparent(traceID, root.ID()))
		ctx := obs.ContextWithTrace(r.Context(), trace)
		ctx = obs.ContextWithSpan(ctx, root.ID())
		r = r.WithContext(ctx)
		s.mux.ServeHTTP(sw, r)
		root.End()
		s.flight.Record(obs.FlightRecord{
			Trace:    traceID,
			Route:    route,
			Status:   sw.code,
			Start:    time.Since(s.met.start).Seconds() - time.Since(start).Seconds(),
			Duration: time.Since(start).Seconds(),
			Outcome:  outcomeOf(route, sw),
			Spans:    trace.TakeSpans(),
		})
		s.active.Add(-1)
		if s.Draining() {
			// A request that finishes after SIGTERM is a drain success:
			// the daemon reports these against the aborted remainder.
			s.met.drainDone.Add(1)
		}
		if s.logger != nil {
			s.logger.Info("request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.code,
				"duration_ms", float64(time.Since(start).Microseconds())/1000)
		}
	})
}

// outcomeOf classifies a finished request for its flight record: a
// panicked plan, the admission-control, timeout and
// draining-health-check statuses get their own labels, other non-2xx
// answers are "error", and successes split on the cache header.
func outcomeOf(route string, sw *statusWriter) string {
	switch {
	case sw.panicked:
		return "panic"
	case sw.code == http.StatusTooManyRequests:
		return "rejected"
	case sw.code == http.StatusServiceUnavailable && route == "healthz":
		return "draining"
	case sw.code == http.StatusServiceUnavailable:
		return "timeout"
	case sw.code >= 400:
		return "error"
	case sw.Header().Get("X-Cache") == "HIT":
		return "cache_hit"
	}
	return "ok"
}

// StartDraining flips /healthz to 503 so load balancers stop routing new
// traffic here; in-flight requests are unaffected. The daemon calls this
// on SIGTERM before http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Active returns the number of requests currently being served — after a
// drain deadline expires, the requests about to be aborted.
func (s *Server) Active() int64 { return s.active.Load() }

// DrainCompleted returns how many requests finished after draining began.
func (s *Server) DrainCompleted() uint64 { return s.met.drainDone.Load() }

// Close drains the worker pool and releases the server's resources. Call
// after the HTTP listener has shut down.
func (s *Server) Close() { s.pool.Close() }
