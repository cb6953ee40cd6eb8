package sla

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/obs"
	"repro/internal/sched"
)

// SearchConfig parameterizes a deadline-constrained portfolio search.
type SearchConfig struct {
	// Deadline is the SLA's makespan bound in seconds; Target the
	// required meet probability ("finish by Deadline with probability at
	// least Target").
	Deadline float64
	Target   float64
	// Config embeds the per-candidate sampling parameters (Samples, Seed,
	// Workers, Faults, Paranoid).
	Config
	// Candidates restricts the portfolio. Nil enumerates
	// frontier.Portfolio(nil, Markets): the full strategy registry
	// crossed with the given market presets.
	Candidates []frontier.Candidate
	// Markets selects the market presets swept when Candidates is nil;
	// nil means the paper's economics only ("none").
	Markets []string
	// Opts carries platform and region; each candidate's market preset
	// overrides Opts.Market.
	Opts sched.Options
	// NoBound disables the analytic prune, forcing every candidate
	// through sampling. The fuzz harness uses it to prove pruning never
	// changes the answer; it is also the escape hatch if a bound bug ever
	// ships.
	NoBound bool
	// Trace, when non-nil, receives one span per portfolio candidate
	// (named "candidate <strategy>@<market>", covering its bound and
	// verdict, annotated with its fate) and one "sla_measure" span for the
	// shared Monte-Carlo pass, all parented on TraceParent — how a service
	// request's trace extends into the search. Nil (the default) costs one
	// branch per span.
	Trace       *obs.Trace
	TraceParent obs.SpanID
}

// Pruned records a candidate rejected by the analytic pre-pass: its
// certain lower bound already exceeds the deadline, so P(meet) = 0 and no
// samples were spent on it.
type Pruned struct {
	Strategy string
	Market   string
	Bound    Bound
}

// SearchResult is the outcome of a portfolio search.
type SearchResult struct {
	Deadline float64
	Target   float64
	// Best is the cheapest sampled candidate with MeetProbability >=
	// Target, or — when none qualifies (the search returns
	// ErrNoStrategyMeets) — the highest-probability candidate as a
	// best-effort answer. Nil only when everything was pruned.
	Best *Result
	// Results holds every sampled candidate sorted by (mean cost,
	// strategy, market); Pruned the candidates the analytic bound
	// rejected, in portfolio order.
	Results []Result
	Pruned  []Pruned
	// Considered counts portfolio candidates, Sampled the template
	// instances actually scheduled (Considered−len(Pruned) candidates ×
	// Samples each).
	Considered int
	Sampled    int
	// Audit records every candidate's verdict in visit order plus the
	// winner rationale; its pruned and sampled counts always sum to
	// Considered.
	Audit Audit
}

// survivor is a candidate the analytic pre-pass kept: its market, its
// bound, and the index of its verdict in the audit.
type survivor struct {
	market  string
	bound   Bound
	verdict int
}

// ErrNoStrategyMeets reports that no candidate reached the target
// probability; the SearchResult's Best is then the closest sampled one,
// or nil when every candidate was pruned.
var ErrNoStrategyMeets = fmt.Errorf("sla: no strategy meets the target probability")

// pruneMargin keeps the analytic prune strictly conservative against
// float rounding: a candidate is dropped only when its certain lower
// bound exceeds the deadline by more than a relative hair, so a bound
// that lands exactly on the deadline still gets sampled.
const pruneMargin = 1e-9

// Search finds the cheapest strategy × market candidate meeting
// P(makespan <= Deadline) >= Target over the template's instance
// distribution. Each candidate first passes through the analytic bound
// (AnalyticBound at BoundType(strategy)): candidates whose certain
// minimal makespan already exceeds the deadline are pruned without
// sampling — by construction this never drops a candidate the Monte-Carlo
// pass could have accepted, since no realization can beat the bound. The
// survivors then share one instance-major pass: each instance is sampled
// once and scheduled under every survivor, and each survivor's Result
// equals Measure of that candidate alone, so the result is bit-identical
// across runs, worker counts, candidate order, and prune on/off.
//
// If no candidate reaches the target, Search returns the best-effort
// SearchResult along with ErrNoStrategyMeets.
func Search(t ndwf.Template, cfg SearchConfig) (SearchResult, error) {
	if cfg.Deadline <= 0 {
		return SearchResult{}, fmt.Errorf("sla: non-positive deadline %v", cfg.Deadline)
	}
	if cfg.Target <= 0 || cfg.Target > 1 {
		return SearchResult{}, fmt.Errorf("sla: target probability %v outside (0, 1]", cfg.Target)
	}
	ct, err := t.Check()
	if err != nil {
		return SearchResult{}, err
	}
	cands := cfg.Candidates
	if cands == nil {
		cands = frontier.Portfolio(nil, cfg.Markets)
	}
	if len(cands) == 0 {
		return SearchResult{}, fmt.Errorf("sla: empty candidate portfolio")
	}

	out := SearchResult{Deadline: cfg.Deadline, Target: cfg.Target, Considered: len(cands)}
	out.Audit = Audit{PortfolioSize: len(cands)}
	// The survivors of the pre-pass, in portfolio order: what each one
	// schedules with, and where its bound and verdict go.
	var (
		probes    []probe
		survivors []survivor
	)
	for _, c := range cands {
		sp := cfg.Trace.StartSpan("candidate "+c.Strategy+"@"+c.Market, cfg.TraceParent)
		alg, err := sched.ByName(c.Strategy)
		if err != nil {
			sp.End()
			return SearchResult{}, fmt.Errorf("sla: %w", err)
		}
		model, err := market.Preset(c.Market)
		if err != nil {
			sp.End()
			return SearchResult{}, fmt.Errorf("sla: %w", err)
		}
		bound, err := AnalyticBound(t, BoundType(c.Strategy))
		if err != nil {
			sp.End()
			return SearchResult{}, err
		}
		v := Verdict{
			Strategy:      c.Strategy,
			Market:        c.Market,
			BoundMinS:     bound.MinMakespan,
			BoundEstimate: bound.MeetEstimate(cfg.Deadline),
		}
		if !cfg.NoBound && bound.MinMakespan > cfg.Deadline*(1+pruneMargin) {
			out.Pruned = append(out.Pruned, Pruned{Strategy: c.Strategy, Market: c.Market, Bound: bound})
			v.Fate = "pruned"
			v.Reason = fmt.Sprintf("certain minimum %.1f s exceeds the %.1f s deadline; P(meet) = 0 without sampling",
				bound.MinMakespan, cfg.Deadline)
			out.Audit.Verdicts = append(out.Audit.Verdicts, v)
			out.Audit.PrunedCount++
			sp.SetAttr("fate", "pruned")
			sp.End()
			continue
		}
		opts := cfg.Opts
		opts.Market = model
		probes = append(probes, probe{alg, opts})
		survivors = append(survivors, survivor{market: c.Market, bound: bound, verdict: len(out.Audit.Verdicts)})
		v.Fate = "sampled"
		out.Audit.Verdicts = append(out.Audit.Verdicts, v)
		out.Audit.SampledCount++
		sp.SetAttr("fate", "sampled")
		sp.End()
	}

	if len(probes) > 0 {
		sp := cfg.Trace.StartSpan("sla_measure", cfg.TraceParent)
		results, err := measure(ct, probes, cfg.Deadline, cfg.Config)
		sp.End()
		if err != nil {
			return SearchResult{}, err
		}
		for i, res := range results {
			s := survivors[i]
			res.Market = s.market
			res.Bound = &s.bound
			out.Results = append(out.Results, res)
			out.Sampled += res.N
			v := &out.Audit.Verdicts[s.verdict]
			v.MeetProbability = res.MeetProbability
			v.MeanCostUSD = res.Cost.Mean
			v.Met = res.MeetProbability >= cfg.Target
		}
	}

	sort.SliceStable(out.Results, func(i, j int) bool {
		a, b := out.Results[i], out.Results[j]
		if a.Cost.Mean != b.Cost.Mean {
			return a.Cost.Mean < b.Cost.Mean
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		return a.Market < b.Market
	})
	for i := range out.Results {
		if out.Results[i].MeetProbability >= cfg.Target {
			out.Best = &out.Results[i]
			out.auditWinner(cfg.Target)
			return out, nil
		}
	}
	// Nothing qualifies: surface the highest-probability candidate (ties
	// broken by the cost order above) so callers can report how close the
	// portfolio came.
	bestP := math.Inf(-1)
	for i := range out.Results {
		if out.Results[i].MeetProbability > bestP {
			out.Best, bestP = &out.Results[i], out.Results[i].MeetProbability
		}
	}
	out.auditWinner(cfg.Target)
	return out, ErrNoStrategyMeets
}

// auditWinner finalizes the audit once Best is chosen: it marks the
// winning verdict, fills every sampled candidate's rationale relative to
// the winner, and writes the overall rationale line.
func (sr *SearchResult) auditWinner(target float64) {
	a := &sr.Audit
	switch {
	case sr.Best == nil:
		a.Rationale = fmt.Sprintf("every candidate's certain minimum exceeds the %.1f s deadline", sr.Deadline)
	case sr.Best.MeetProbability >= target:
		a.Winner = sr.Best.Strategy + "@" + sr.Best.Market
		a.Rationale = fmt.Sprintf("cheapest sampled candidate meeting P >= %.2f, at p = %.2f and $%.4f mean cost",
			target, sr.Best.MeetProbability, sr.Best.Cost.Mean)
	default:
		a.Winner = sr.Best.Strategy + "@" + sr.Best.Market
		a.Rationale = fmt.Sprintf("no candidate reaches P >= %.2f; best effort is the highest probability, p = %.2f",
			target, sr.Best.MeetProbability)
	}
	for i := range a.Verdicts {
		v := &a.Verdicts[i]
		if v.Fate != "sampled" {
			continue
		}
		winner := sr.Best != nil && v.Strategy == sr.Best.Strategy && v.Market == sr.Best.Market
		v.Winner = winner
		switch {
		case winner && v.Met:
			v.Reason = fmt.Sprintf("cheapest candidate meeting the target (p = %.2f, $%.4f mean)",
				v.MeetProbability, v.MeanCostUSD)
		case winner:
			v.Reason = fmt.Sprintf("best effort: highest meet probability (p = %.2f), target P >= %.2f unmet",
				v.MeetProbability, target)
		case v.Met:
			v.Reason = fmt.Sprintf("meets the target (p = %.2f) but at $%.4f mean cost loses on price",
				v.MeetProbability, v.MeanCostUSD)
		default:
			v.Reason = fmt.Sprintf("meet probability %.2f below the P >= %.2f target", v.MeetProbability, target)
		}
	}
}
