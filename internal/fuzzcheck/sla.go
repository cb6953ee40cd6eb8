package fuzzcheck

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/cloud"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sla"
	"repro/internal/stats"
)

// SLACase is one input of the SLA-bound property harness: a recipe for a
// random non-deterministic template, a deadline placed relative to the
// template's certain minimum makespan, and a sampling budget. Like Case,
// every field is a primitive so the tuple round-trips through the native
// fuzz corpus encoding, and Normalize folds arbitrary mutations into the
// valid domain.
type SLACase struct {
	Seed        uint64 // template shape, work draws and sampling seed
	Blocks      int    // structural budget (normalized into [1, 12])
	DeadlinePct int    // deadline as % of the fastest-type analytic minimum (normalized into [40, 400])
	Samples     int    // Monte-Carlo instances per candidate (normalized into [3, 12])
	StratOff    int    // rotation offset into the strategy portfolio
}

// slaPortfolioSize bounds the candidates per case so one property check
// stays cheap enough to fuzz.
const slaPortfolioSize = 5

// Normalize folds arbitrary field values into the valid domain. It is
// idempotent.
func (c SLACase) Normalize() SLACase {
	c.Blocks = 1 + mod(c.Blocks-1, 12)
	c.DeadlinePct = 40 + mod(c.DeadlinePct-40, 361)
	c.Samples = 3 + mod(c.Samples-3, 10)
	c.StratOff = mod(c.StratOff, len(frontier.Portfolio(nil, nil)))
	return c
}

// String renders the case compactly for failure reports.
func (c SLACase) String() string {
	c = c.Normalize()
	return fmt.Sprintf("slacase{seed: %d, blocks: %d, deadline: %d%%, samples: %d, off: %d}",
		c.Seed, c.Blocks, c.DeadlinePct, c.Samples, c.StratOff)
}

// RandomTemplate builds a seeded random ndwf template with at most blocks
// structural blocks: tasks with occasional zero work, nested Seq/Par
// groups, Xor branches with random probability splits and truncated
// geometric Loops. Deterministic — equal arguments yield equal templates —
// and always valid.
func RandomTemplate(seed uint64, blocks int) ndwf.Template {
	r := stats.NewRNG(seed)
	budget := blocks
	root := randomBlock(r, &budget, 0)
	return ndwf.Template{Name: fmt.Sprintf("fuzz-%d", seed), Root: root}
}

// randomBlock consumes one unit of budget and recurses while budget
// remains; depth caps nesting so pathological towers cannot form.
func randomBlock(r *stats.RNG, budget *int, depth int) ndwf.Block {
	*budget--
	if *budget <= 0 || depth >= 3 {
		return randomTask(r)
	}
	switch r.Intn(6) {
	case 0, 1: // group: sequential or parallel
		n := 2 + r.Intn(3)
		kids := make([]ndwf.Block, 0, n)
		for i := 0; i < n && *budget > 0; i++ {
			kids = append(kids, randomBlock(r, budget, depth+1))
		}
		if len(kids) == 0 {
			return randomTask(r)
		}
		if r.Intn(2) == 0 {
			return ndwf.Seq(kids)
		}
		return ndwf.Par(kids)
	case 2: // exclusive choice with a random probability split
		n := 2 + r.Intn(2)
		branches := make([]ndwf.Block, 0, n)
		probs := make([]float64, 0, n)
		total := 0.0
		for i := 0; i < n; i++ {
			branches = append(branches, randomBlock(r, budget, depth+1))
			p := r.Range(0.1, 1)
			probs = append(probs, p)
			total += p
		}
		for i := range probs {
			probs[i] /= total
		}
		return ndwf.Xor{Branches: branches, Probs: probs}
	case 3: // truncated geometric loop
		return ndwf.Loop{
			Body:   randomBlock(r, budget, depth+1),
			Repeat: r.Range(0, 0.85),
			Max:    1 + r.Intn(4),
		}
	default:
		return randomTask(r)
	}
}

func randomTask(r *stats.RNG) ndwf.Task {
	work := r.Range(10, 3000)
	if r.Intn(8) == 0 {
		work = 0
	}
	return ndwf.Task{
		Name: fmt.Sprintf("t%d", r.Intn(1<<20)),
		Work: work,
		Data: r.Range(0, 256),
	}
}

// Candidates returns the case's strategy slice: slaPortfolioSize names
// from the full portfolio starting at the rotation offset, so the stream
// covers every strategy while one case stays cheap.
func (c SLACase) Candidates() []frontier.Candidate {
	c = c.Normalize()
	all := frontier.Portfolio(nil, nil)
	out := make([]frontier.Candidate, 0, slaPortfolioSize)
	for i := 0; i < slaPortfolioSize; i++ {
		out = append(out, all[(c.StratOff+i)%len(all)])
	}
	return out
}

// Deadline derives the case's deadline: DeadlinePct percent of the
// template's certain minimum makespan at the fastest instance type. Below
// 100% every candidate is prunable; above it the portfolio splits into
// pruned and sampled candidates — both sides of the property get traffic.
func (c SLACase) Deadline(t ndwf.Template) (float64, error) {
	c = c.Normalize()
	types := cloud.InstanceTypes()
	b, err := sla.AnalyticBound(t, types[len(types)-1])
	if err != nil {
		return 0, err
	}
	d := b.MinMakespan * float64(c.DeadlinePct) / 100
	if d <= 0 {
		d = 1 // all-zero-work template: any positive deadline is met
	}
	return d, nil
}

// CheckSLABound runs the case's portfolio search twice — analytic prune
// enabled and disabled — and verifies the bound's safety contract:
//
//   - a pruned candidate is never one the Monte-Carlo pass would have
//     accepted: sampled without the bound, its meet probability is zero
//     and no sampled makespan beats the bound;
//   - every sampled candidate's result is bit-identical in both runs, so
//     pruning changes cost, never answers;
//   - every sampled candidate's result equals sla.Measure of that
//     candidate alone, so the search's shared instance-major pass is
//     the per-candidate measurement it stands for;
//   - the verdict is identical: target-met/missed always agrees, and the
//     selected candidate matches whenever the target is met.
func CheckSLABound(c SLACase) error {
	c = c.Normalize()
	tpl := RandomTemplate(c.Seed, c.Blocks)
	if err := tpl.Validate(); err != nil {
		return fmt.Errorf("fuzzcheck: %v: invalid template: %w", c, err)
	}
	deadline, err := c.Deadline(tpl)
	if err != nil {
		return fmt.Errorf("fuzzcheck: %v: %w", c, err)
	}
	cfg := sla.SearchConfig{
		Deadline:   deadline,
		Target:     0.9,
		Config:     sla.Config{Samples: c.Samples, Seed: c.Seed, Workers: 1},
		Candidates: c.Candidates(),
		Opts:       sched.DefaultOptions(),
	}
	bounded, errB := sla.Search(tpl, cfg)
	cfg.NoBound = true
	full, errF := sla.Search(tpl, cfg)
	if (errB != nil) != (errF != nil) ||
		(errB != nil && errors.Is(errB, sla.ErrNoStrategyMeets) != errors.Is(errF, sla.ErrNoStrategyMeets)) {
		return fmt.Errorf("fuzzcheck: %v: verdict differs: bounded %v, unbounded %v", c, errB, errF)
	}
	if errB != nil && !errors.Is(errB, sla.ErrNoStrategyMeets) {
		return nil // both searches failed identically before sampling
	}

	byKey := make(map[string]*sla.Result, len(full.Results))
	for i := range full.Results {
		r := &full.Results[i]
		byKey[r.Strategy+"/"+r.Market] = r
	}
	for _, p := range bounded.Pruned {
		r := byKey[p.Strategy+"/"+p.Market]
		if r == nil {
			return fmt.Errorf("fuzzcheck: %v: pruned %s/%s missing from unbounded run",
				c, p.Strategy, p.Market)
		}
		if r.MeetProbability != 0 {
			return fmt.Errorf("fuzzcheck: %v: pruned %s/%s meets the deadline with p = %v",
				c, p.Strategy, p.Market, r.MeetProbability)
		}
		if r.Makespan.Min < p.Bound.MinMakespan*(1-1e-9) {
			return fmt.Errorf("fuzzcheck: %v: %s/%s sampled makespan %v beats bound %v",
				c, p.Strategy, p.Market, r.Makespan.Min, p.Bound.MinMakespan)
		}
	}
	for i := range bounded.Results {
		r := &bounded.Results[i]
		u := byKey[r.Strategy+"/"+r.Market]
		if u == nil {
			return fmt.Errorf("fuzzcheck: %v: sampled %s/%s missing from unbounded run",
				c, r.Strategy, r.Market)
		}
		if !reflect.DeepEqual(*r, *u) {
			return fmt.Errorf("fuzzcheck: %v: %s/%s result differs with pruning on",
				c, r.Strategy, r.Market)
		}
		if r.Bound != nil && r.Makespan.Min < r.Bound.MinMakespan*(1-1e-9) {
			return fmt.Errorf("fuzzcheck: %v: %s/%s sampled makespan %v beats bound %v",
				c, r.Strategy, r.Market, r.Makespan.Min, r.Bound.MinMakespan)
		}
		if err := checkMeasured(tpl, cfg, *r); err != nil {
			return fmt.Errorf("fuzzcheck: %v: %w", c, err)
		}
	}
	// The selected candidate must match whenever the target is met. Under
	// ErrNoStrategyMeets both runs agree nothing qualifies; the best-effort
	// pointer may then legitimately differ (a pruned candidate has no
	// samples to be "closest" with), so it is exempt.
	if errB == nil {
		if bounded.Best == nil || full.Best == nil ||
			bounded.Best.Strategy != full.Best.Strategy || bounded.Best.Market != full.Best.Market {
			return fmt.Errorf("fuzzcheck: %v: best differs: bounded %v, unbounded %v",
				c, bounded.Best, full.Best)
		}
	}
	if bounded.Considered != full.Considered {
		return fmt.Errorf("fuzzcheck: %v: considered %d vs %d",
			c, bounded.Considered, full.Considered)
	}
	return nil
}

// RandomSLA draws an SLA case from the given stream position —
// deterministic like Random, so divergences reproduce by index.
func RandomSLA(sweepSeed uint64, i int) SLACase {
	r := stats.NewRNG(fault.CellSeed(sweepSeed, "sla", fmt.Sprint(i)))
	return SLACase{
		Seed:        r.Uint64(),
		Blocks:      1 + r.Intn(12),
		DeadlinePct: 40 + r.Intn(361),
		Samples:     3 + r.Intn(10),
		StratOff:    r.Intn(len(frontier.Portfolio(nil, nil))),
	}.Normalize()
}

// checkMeasured re-measures one sampled candidate of a search on its own
// with sla.Measure, sets Market and Bound as the search does, and requires
// the search's result to equal it exactly.
func checkMeasured(tpl ndwf.Template, cfg sla.SearchConfig, r sla.Result) error {
	alg, err := sched.ByName(r.Strategy)
	if err != nil {
		return err
	}
	model, err := market.Preset(r.Market)
	if err != nil {
		return err
	}
	opts := cfg.Opts
	opts.Market = model
	want, err := sla.Measure(tpl, alg, opts, cfg.Deadline, cfg.Config)
	if err != nil {
		return fmt.Errorf("measuring %s/%s alone: %w", r.Strategy, r.Market, err)
	}
	bound, err := sla.AnalyticBound(tpl, sla.BoundType(r.Strategy))
	if err != nil {
		return err
	}
	want.Market, want.Bound = r.Market, &bound
	if !reflect.DeepEqual(r, want) {
		return fmt.Errorf("%s/%s search result differs from Measure of the candidate alone", r.Strategy, r.Market)
	}
	return nil
}
