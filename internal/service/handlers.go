package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/provision"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/validate"
	"repro/internal/workload"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body: one JSON value, with
// nothing but whitespace after it.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// problem is a request's validated, keyed spec.
type problem interface {
	Validate() error
	Key() spec.Key
}

// planner builds a planning endpoint's route handler: POST only, a strict
// decode of the body into a request R (400 on failure), its mapping onto a
// spec P, validation (422 on failure), then runCached under the spec's
// key. Building it adds the endpoint's latency series, so the series
// exists from the first scrape.
func planner[R any, P problem](toSpec func(*R) (P, error),
	plan func(*Server, context.Context, P) (any, error)) func(*Server, string) http.HandlerFunc {
	return func(s *Server, endpoint string) http.HandlerFunc {
		latency := s.met.addLatency(endpoint)
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				s.writeError(w, http.StatusMethodNotAllowed, "POST only")
				return
			}
			var req R
			if !s.decodeBody(w, r, &req) {
				return
			}
			p, err := toSpec(&req)
			if err == nil {
				err = p.Validate()
			}
			if err != nil {
				s.writeError(w, http.StatusUnprocessableEntity, "%v", err)
				return
			}
			s.runCached(w, r, latency, p.Key(), func(ctx context.Context) (any, error) {
				return plan(s, ctx, p)
			})
		}
	}
}

// method builds the route handler of a plain endpoint from its method.
func method(h func(*Server, http.ResponseWriter, *http.Request)) func(*Server, string) http.HandlerFunc {
	return func(s *Server, _ string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { h(s, w, r) }
	}
}

// runCached is the shared serve path of the planning endpoints:
// answer from the cache, or admit the planning job to the pool and cache
// its compact JSON; writeCached indents either on the way out. A hit
// builds nothing: the spec's workflow, if any, is built by the planning
// job, on a pool worker. A planned miss observes its latency in the
// endpoint's series. Each stage marks a span on the request trace —
// cache_lookup (result hit or miss), then queue_wait covering admission
// and queue time (admission admitted or rejected), then plan covering the
// worker's planning run.
func (s *Server) runCached(w http.ResponseWriter, r *http.Request, latency *histogram, key spec.Key,
	plan func(context.Context) (any, error)) {
	look, _ := obs.StartSpanCtx(r.Context(), "cache_lookup")
	body, ok := s.cache.Get(key)
	if ok {
		look.SetAttr("result", "hit")
		look.End()
		s.met.cacheHits.Add(1)
		writeCached(w, body, true)
		return
	}
	look.SetAttr("result", "miss")
	look.End()
	s.met.cacheMisses.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	started := time.Now()
	wait, _ := obs.StartSpanCtx(ctx, "queue_wait")
	out, err := s.pool.Submit(ctx, func(ctx context.Context) (any, error) {
		wait.SetAttr("admission", "admitted")
		wait.End()
		s.met.inflight.Add(1)
		job, ctx := obs.StartSpanCtx(ctx, "plan")
		defer func() {
			job.End()
			s.met.inflight.Add(-1)
		}()
		return plan(ctx)
	})
	var pe *panicError
	switch {
	case errors.Is(err, errQueueFull):
		wait.SetAttr("admission", "rejected")
		wait.End()
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "submission queue full, retry later")
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		wait.End()
		s.met.timeouts.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "request timed out after %v", s.cfg.RequestTimeout)
		return
	case errors.As(err, &pe):
		// The pool counted the panic. Its value and stack go to the
		// flight record, not to the client.
		sp, _ := obs.StartSpanCtx(r.Context(), "panic")
		sp.SetAttr("value", fmt.Sprint(pe.value))
		sp.SetAttr("stack", string(pe.stack))
		sp.End()
		if sw, ok := w.(*statusWriter); ok {
			sw.panicked = true
		}
		s.writeError(w, http.StatusInternalServerError, "planning failed: internal error")
		return
	case err != nil:
		wait.End()
		s.writeError(w, http.StatusInternalServerError, "planning failed: %v", err)
		return
	}
	body, merr := json.Marshal(out)
	if merr != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", merr)
		return
	}
	s.cache.Put(key, body)
	latency.observe(time.Since(started).Seconds())
	writeCached(w, body, false)
}

// planSchedule runs one strategy (plus the baseline) on one workflow.
func (s *Server) planSchedule(ctx context.Context, sp *spec.Schedule) (any, error) {
	// Apply returns a frozen workflow: an immutable snapshot both the
	// strategy and the baseline schedule from directly, no clones.
	wf := sp.Scenario.Value().Apply(sp.Workflow.Value(), sp.Seed)
	alg, wfName := sp.Strategy.Value(), sp.Workflow.Label()
	opts := sched.Options{Platform: cloud.NewPlatform(), Region: sp.Region.Value(), Market: sp.Market.Value()}
	span, ctx := obs.StartSpanCtx(ctx, "schedule")
	span.SetAttr("strategy", alg.Name())
	sch, err := alg.Schedule(wf, opts)
	if err != nil {
		span.End()
		return nil, fmt.Errorf("%s on %s: %w", alg.Name(), wfName, err)
	}
	base, err := sched.Baseline().Schedule(wf, opts)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("baseline on %s: %w", wfName, err)
	}
	point := metrics.Compare(alg.Name(), sch, base)

	out := &ScheduleResponse{
		Workflow:         wfName,
		Tasks:            wf.Len(),
		Scenario:         string(sp.Scenario),
		Strategy:         alg.Name(),
		Region:           string(sp.Region),
		Seed:             sp.Seed,
		Makespan:         sch.Makespan(),
		Cost:             sch.TotalCost(),
		IdleTime:         sch.IdleTime(),
		VMCount:          sch.VMCount(),
		GainPct:          point.GainPct,
		LossPct:          point.LossPct,
		Category:         metrics.Classify(point).String(),
		BaselineMakespan: base.Makespan(),
		BaselineCost:     base.TotalCost(),
	}
	if sp.Market.Preset != "none" {
		out.Market = sp.Market.Preset
	}
	for _, vm := range sch.VMs {
		if len(vm.Slots) == 0 {
			continue
		}
		vj := VMJSON{ID: int(vm.ID), Type: vm.Type.String()}
		for _, slot := range vm.Slots {
			vj.Slots = append(vj.Slots, SlotJSON{
				Task:  int(slot.Task),
				Name:  wf.Task(slot.Task).Name,
				Start: slot.Start,
				End:   slot.End,
			})
		}
		out.VMs = append(out.VMs, vj)
	}
	if sp.Debug {
		osp, _ := obs.StartSpanCtx(ctx, "oracle")
		out.Oracle = &OracleJSON{Passed: true}
		if oerr := validate.PlanSim(sch); oerr != nil {
			out.Oracle.Passed = false
			out.Oracle.Divergence = oerr.Error()
		}
		osp.SetAttr("passed", fmt.Sprint(out.Oracle.Passed))
		osp.End()
	}
	if sp.Simulate {
		simRes, err := sim.Run(sch, sim.Config{BootTime: sp.BootS, Faults: sp.Faults.Value()})
		if err != nil {
			return nil, fmt.Errorf("simulating %s on %s: %w", alg.Name(), wfName, err)
		}
		s.met.recordSim(simRes.Events, simRes.Transfers, simRes.VMCrashes,
			simRes.TaskFailures, simRes.Retries, simRes.Resubmits)
		out.Simulation = &SimulationJSON{
			Makespan:   simRes.Makespan,
			RentalCost: simRes.RentalCost,
			IdleTime:   simRes.IdleTime,
			BootS:      sp.BootS,
			Events:     simRes.Events,
			Transfers:  simRes.Transfers,
		}
		if sp.Faults.Value().Active() {
			rel := metrics.ReliabilityOf(sch, simRes)
			out.Simulation.Reliability = &ReliabilityJSON{
				Completed:         rel.Completed,
				CompletedFraction: rel.CompletedFraction,
				FailReason:        rel.FailReason,
				VMCrashes:         rel.VMCrashes,
				TaskFailures:      rel.TaskFailures,
				Retries:           rel.Retries,
				Resubmits:         rel.Resubmits,
				WastedBTUSeconds:  rel.WastedBTUSeconds,
				AddedMakespan:     rel.AddedMakespan,
				AddedCost:         rel.AddedCost,
				SpotPreemptions:   rel.SpotPreemptions,
				FallbackVMs:       rel.FallbackVMs,
				FallbackPremium:   rel.FallbackPremium,
				WarmIdleSeconds:   rel.WarmIdleSeconds,
			}
		}
	}
	return out, nil
}

// planCompare sweeps the whole catalog over one workflow/scenario pane by
// reusing the experiment driver. The sweep runs serially (Workers: 1):
// request-level parallelism already comes from the service's pool, and
// nesting a second fan-out per request would oversubscribe the host under
// load.
func (s *Server) planCompare(ctx context.Context, sp *spec.Compare) (any, error) {
	span, ctx := obs.StartSpanCtx(ctx, "sweep")
	defer span.End()
	wfName, sc := sp.Workflow.Label(), sp.Scenario.Value()
	cfg := core.Config{
		Seed:          sp.Seed,
		Region:        sp.Region.Value(),
		Workflows:     map[string]*dag.Workflow{wfName: sp.Workflow.Value()},
		WorkflowOrder: []string{wfName},
		Scenarios:     []workload.Scenario{sc},
		Workers:       1,
		Trace:         obs.TraceFrom(ctx),
		TraceSpan:     span.ID(),
	}
	sw, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	cells := sw.Points(wfName, sc)
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty sweep for %s/%s", wfName, sc)
	}
	out := &CompareResponse{
		Workflow:         wfName,
		Tasks:            sp.Workflow.Value().Len(),
		Scenario:         string(sp.Scenario),
		Region:           string(sp.Region),
		Seed:             sp.Seed,
		BaselineMakespan: cells[0].BaselineMakespan,
		BaselineCost:     cells[0].BaselineCost,
	}
	for _, c := range cells {
		out.Results = append(out.Results, CompareRow{
			Strategy: c.Strategy,
			Makespan: c.Point.Makespan,
			Cost:     c.Point.Cost,
			IdleTime: c.Point.IdleTime,
			VMCount:  c.Point.VMCount,
			GainPct:  c.Point.GainPct,
			LossPct:  c.Point.LossPct,
			Category: c.Category.String(),
		})
	}
	return out, nil
}

// handleCatalog serves GET /v1/catalog.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := CatalogResponse{
		Strategies:    core.StrategyNames(),
		Algorithms:    []string{"HEFT", "AllPar"},
		Workflows:     core.WorkflowNames(),
		Generators:    core.GeneratorSpecs(),
		Templates:     core.TemplateNames(),
		FaultPresets:  fault.PresetNames(),
		MarketPresets: market.PresetNames(),
		Scalers:       online.ScalerNames(),
		Dispatches:    []string{"fifo", "sjf"},
	}
	for _, rec := range fault.Recoveries() {
		resp.Recoveries = append(resp.Recoveries, rec.String())
	}
	for _, k := range provision.Kinds() {
		resp.Policies = append(resp.Policies, k.String())
	}
	for _, t := range cloud.InstanceTypes() {
		resp.Instances = append(resp.Instances, t.String())
	}
	for _, sc := range append(workload.Scenarios(), workload.DataHeavy, workload.AsIs) {
		resp.Scenarios = append(resp.Scenarios, sc.String())
	}
	for _, region := range cloud.Regions() {
		resp.Regions = append(resp.Regions, region.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics: Prometheus text exposition by
// default, the legacy JSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.writePrometheus(w) //nolint:errcheck // the connection is gone; nothing to do
}

// handleFlight serves GET /debug/flight: the flight recorder's retained
// request records (always on, last FlightSize requests) as NDJSON oldest
// first, or — with ?format=trace — as a Chrome-trace document with one
// track per request, loadable in Perfetto alongside the simulator
// timelines.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	recs := s.flight.Records()
	if r.URL.Query().Get("format") == "trace" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		obs.WriteChromeTraceSpans(w, nil, nil, obs.SpanSets(recs)) //nolint:errcheck // the connection is gone; nothing to do
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	obs.WriteFlightNDJSON(w, recs) //nolint:errcheck // the connection is gone; nothing to do
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once the
// daemon starts draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
