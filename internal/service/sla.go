package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sla"
	"repro/internal/spec"
)

// maxSLASamples bounds the per-request sample budget: the search schedules
// candidates × samples instances, and the service must not let one request
// monopolize the pool.
const maxSLASamples = 2000

// SLARequest is the body of POST /v1/sla: a deadline question over a
// non-deterministic workflow template. Exactly one template source must be
// set — an inline ndwf template document or a registry name ("order",
// "montage", "montage12"). The search sweeps the strategy × market
// portfolio (defaults: the full strategy registry × the paper's
// economics) and answers with the cheapest candidate meeting
// P(makespan <= deadline_s) >= confidence.
type SLARequest struct {
	// Template is an inline non-deterministic template document (the ndwf
	// JSON shape, as emitted by cmd/ndflow -emit template).
	Template json.RawMessage `json:"template,omitempty"`
	// TemplateName names a built-in template.
	TemplateName string `json:"template_name,omitempty"`
	// DeadlineS is the SLA deadline in seconds (required, positive).
	DeadlineS float64 `json:"deadline_s"`
	// Confidence is the required meet probability; default 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// Samples is the Monte-Carlo budget per candidate; default 200, max
	// 2000.
	Samples int `json:"samples,omitempty"`
	// Seed roots the hash-derived per-instance sampling streams.
	Seed uint64 `json:"seed,omitempty"`
	// Region prices the VMs; default is the paper's US East Virginia.
	Region string `json:"region,omitempty"`
	// Strategies restricts the portfolio to the named strategies; empty
	// sweeps the full registry (catalog + hedges).
	Strategies []string `json:"strategies,omitempty"`
	// Markets lists the market presets to sweep; empty means the paper's
	// economics only ("none").
	Markets []string `json:"markets,omitempty"`
	// Fault options replay every sampled schedule through the event
	// simulator under an independent per-instance fault stream; an
	// incomplete run counts as a missed deadline. Unlike /v1/schedule no
	// simulate flag is needed — the SLA question is inherently about
	// observed outcomes.
	FaultRate    float64 `json:"fault_rate,omitempty"`
	TaskFailProb float64 `json:"task_fail_prob,omitempty"`
	PreemptRate  float64 `json:"preempt_rate,omitempty"`
	Recovery     string  `json:"recovery,omitempty"`
	MaxRetries   int     `json:"max_retries,omitempty"`
	FaultSeed    uint64  `json:"fault_seed,omitempty"`
	// Debug cross-checks every fault-free sampled schedule against the
	// discrete-event simulator (the plan↔sim differential oracle), like
	// core.Paranoid. Expensive; a failure is a planner bug, not a bad
	// request, and surfaces as a 500.
	Debug bool `json:"debug,omitempty"`
}

// SLACandidateJSON is one sampled candidate's empirical outcome.
type SLACandidateJSON struct {
	Strategy        string  `json:"strategy"`
	Market          string  `json:"market"`
	MeetProbability float64 `json:"meet_probability"`
	// MeetLo/MeetHi is the Wilson score interval on the meet probability
	// at the response's ci_level.
	MeetLo float64 `json:"meet_lo"`
	MeetHi float64 `json:"meet_hi"`
	// Makespan distribution quantiles over the sampled instances.
	MeanMakespanS float64 `json:"mean_makespan_s"`
	P50MakespanS  float64 `json:"p50_makespan_s"`
	P90MakespanS  float64 `json:"p90_makespan_s"`
	P99MakespanS  float64 `json:"p99_makespan_s"`
	MaxMakespanS  float64 `json:"max_makespan_s"`
	MeanCostUSD   float64 `json:"mean_cost_usd"`
	P99CostUSD    float64 `json:"p99_cost_usd"`
	// Completed counts instances whose replay finished (equals samples
	// without faults).
	Completed int `json:"completed"`
	// BoundMinS is the candidate's certain analytic lower bound on any
	// instance's makespan; BoundEstimate the analytic (pre-sampling)
	// normal-approximation meet estimate.
	BoundMinS     float64 `json:"bound_min_s"`
	BoundEstimate float64 `json:"bound_estimate"`
}

// SLAPrunedJSON is one candidate rejected by the analytic pre-pass.
type SLAPrunedJSON struct {
	Strategy  string  `json:"strategy"`
	Market    string  `json:"market"`
	BoundMinS float64 `json:"bound_min_s"`
}

// SLAResponse is the body answering POST /v1/sla.
type SLAResponse struct {
	Template   string  `json:"template"`
	DeadlineS  float64 `json:"deadline_s"`
	Confidence float64 `json:"confidence"`
	Samples    int     `json:"samples"`
	Seed       uint64  `json:"seed"`
	Region     string  `json:"region"`
	CILevel    float64 `json:"ci_level"`
	// Met reports whether any candidate reached the target; Best is the
	// cheapest such candidate, or — when Met is false — the closest one.
	Met  bool              `json:"met"`
	Best *SLACandidateJSON `json:"best,omitempty"`
	// Candidates lists every sampled candidate sorted by mean cost;
	// Pruned the candidates the analytic bound rejected without sampling.
	Candidates []SLACandidateJSON `json:"candidates"`
	Pruned     []SLAPrunedJSON    `json:"pruned,omitempty"`
	// Considered counts portfolio candidates; SampledInstances the
	// template instances actually scheduled.
	Considered       int `json:"considered"`
	SampledInstances int `json:"sampled_instances"`
	// Explain is the search's decision audit: every candidate's verdict in
	// portfolio order plus the winner rationale. Its pruned and sampled
	// counts always sum to portfolio_size.
	Explain *SLAExplainJSON `json:"explain"`
}

// SLAVerdictJSON is one candidate's entry in the decision audit.
type SLAVerdictJSON struct {
	Strategy string `json:"strategy"`
	Market   string `json:"market"`
	// Fate is "pruned" or "sampled".
	Fate          string  `json:"fate"`
	BoundMinS     float64 `json:"bound_min_s"`
	BoundEstimate float64 `json:"bound_estimate"`
	// Sampled candidates only.
	MeetProbability float64 `json:"meet_probability,omitempty"`
	MeanCostUSD     float64 `json:"mean_cost_usd,omitempty"`
	Met             bool    `json:"met,omitempty"`
	Winner          bool    `json:"winner,omitempty"`
	Reason          string  `json:"reason"`
}

// SLAExplainJSON is the decision-audit block of an SLA response.
type SLAExplainJSON struct {
	PortfolioSize int              `json:"portfolio_size"`
	PrunedCount   int              `json:"pruned_count"`
	SampledCount  int              `json:"sampled_count"`
	Winner        string           `json:"winner,omitempty"`
	Rationale     string           `json:"rationale"`
	Verdicts      []SLAVerdictJSON `json:"verdicts"`
}

// spec maps the request onto its problem, after the admission cap on
// samples. Unlike /v1/schedule no simulate flag gates the fault fields:
// the SLA question is inherently about observed outcomes.
func (r *SLARequest) spec() (*spec.SLA, error) {
	if r.Samples > maxSLASamples {
		return nil, fmt.Errorf("samples %d outside [1, %d]", r.Samples, maxSLASamples)
	}
	return &spec.SLA{
		Template:   spec.Template{Name: r.TemplateName, Inline: r.Template},
		DeadlineS:  r.DeadlineS,
		Confidence: r.Confidence,
		Samples:    r.Samples,
		Seed:       r.Seed,
		Region:     spec.Region(r.Region),
		Strategies: r.Strategies,
		Markets:    r.Markets,
		Faults: spec.Faults{CrashRate: r.FaultRate, PreemptRate: r.PreemptRate, TaskFailProb: r.TaskFailProb,
			Recovery: r.Recovery, MaxRetries: r.MaxRetries, Seed: r.FaultSeed},
		Debug: r.Debug,
	}, nil
}

// planSLA runs the deadline-constrained portfolio search.
func (s *Server) planSLA(ctx context.Context, sp *spec.SLA) (any, error) {
	span, ctx := obs.StartSpanCtx(ctx, "sla_search")
	defer span.End()
	// One worker: request-level parallelism already comes from the
	// service pool (see planCompare), and the answer is identical at any
	// worker count anyway.
	cfg := sp.Search()
	cfg.Workers = 1
	cfg.Trace = obs.TraceFrom(ctx)
	cfg.TraceParent = span.ID()
	sr, err := sla.Search(sp.Template.Value(), cfg)
	met := err == nil
	if err != nil && !errors.Is(err, sla.ErrNoStrategyMeets) {
		return nil, err
	}
	s.met.recordSLA(met, &sr)

	out := &SLAResponse{
		Template:         sp.Template.Label(),
		DeadlineS:        sr.Deadline,
		Confidence:       sr.Target,
		Samples:          sp.Samples,
		Seed:             sp.Seed,
		Region:           string(sp.Region),
		CILevel:          0.95,
		Met:              met,
		Candidates:       make([]SLACandidateJSON, 0, len(sr.Results)),
		Considered:       sr.Considered,
		SampledInstances: sr.Sampled,
	}
	for i := range sr.Results {
		c := slaCandidateJSON(&sr.Results[i])
		out.Candidates = append(out.Candidates, c)
		if sr.Best == &sr.Results[i] {
			out.Best = &out.Candidates[len(out.Candidates)-1]
		}
	}
	for _, p := range sr.Pruned {
		out.Pruned = append(out.Pruned, SLAPrunedJSON{
			Strategy: p.Strategy, Market: p.Market, BoundMinS: p.Bound.MinMakespan,
		})
	}
	out.Explain = slaExplainJSON(&sr.Audit)
	return out, nil
}

// slaExplainJSON flattens the search's decision audit for the response.
func slaExplainJSON(a *sla.Audit) *SLAExplainJSON {
	e := &SLAExplainJSON{
		PortfolioSize: a.PortfolioSize,
		PrunedCount:   a.PrunedCount,
		SampledCount:  a.SampledCount,
		Winner:        a.Winner,
		Rationale:     a.Rationale,
		Verdicts:      make([]SLAVerdictJSON, 0, len(a.Verdicts)),
	}
	for _, v := range a.Verdicts {
		e.Verdicts = append(e.Verdicts, SLAVerdictJSON{
			Strategy:        v.Strategy,
			Market:          v.Market,
			Fate:            v.Fate,
			BoundMinS:       v.BoundMinS,
			BoundEstimate:   v.BoundEstimate,
			MeetProbability: v.MeetProbability,
			MeanCostUSD:     v.MeanCostUSD,
			Met:             v.Met,
			Winner:          v.Winner,
			Reason:          v.Reason,
		})
	}
	return e
}

// slaCandidateJSON flattens one sampled candidate for the response.
func slaCandidateJSON(r *sla.Result) SLACandidateJSON {
	c := SLACandidateJSON{
		Strategy:        r.Strategy,
		Market:          r.Market,
		MeetProbability: r.MeetProbability,
		MeetLo:          r.MeetCI.Lo,
		MeetHi:          r.MeetCI.Hi,
		MeanMakespanS:   r.Makespan.Mean,
		P50MakespanS:    r.Makespan.Median,
		P90MakespanS:    r.Makespan.P90,
		P99MakespanS:    r.Makespan.P99,
		MaxMakespanS:    r.Makespan.Max,
		MeanCostUSD:     r.Cost.Mean,
		P99CostUSD:      r.Cost.P99,
		Completed:       r.Completed,
	}
	if r.Bound != nil {
		c.BoundMinS = r.Bound.MinMakespan
		c.BoundEstimate = r.Bound.MeetEstimate(r.Deadline)
	}
	return c
}
