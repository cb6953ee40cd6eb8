// Package sla answers deadline questions over non-deterministic
// workloads: with runtime splits and loops, a static strategy induces a
// makespan *distribution*, and an SLA is a probability of finishing in
// time. This operationalizes the deadline-centric related work the paper
// surveys (SHEFT, Byun et al.'s cost-optimized deadline provisioning) on
// top of this repository's template and strategy machinery.
package sla

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ndwf"
	"repro/internal/sched"
)

// Estimate is the outcome of evaluating one strategy against a deadline.
type Estimate struct {
	Strategy string
	// MeetProbability is the fraction of realized instances finishing by
	// the deadline.
	MeetProbability float64
	// MeanCost and MeanMakespan summarize the per-instance outcomes.
	MeanCost     float64
	MeanMakespan float64
}

// evaluate samples each of n instances (seeds seed, seed+1, ...) once and
// schedules it with every strategy, accumulating each strategy's sums in
// instance order, so every estimate equals evaluate of that strategy
// alone: how often it meets the deadline, and its mean cost and makespan.
func evaluate(t ndwf.Template, algs []sched.Algorithm, opts sched.Options,
	deadline float64, n int, seed uint64) ([]Estimate, error) {
	if deadline <= 0 {
		return nil, fmt.Errorf("sla: non-positive deadline %v", deadline)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sla: non-positive sample count %d", n)
	}
	// Sum first, divide once at the end: dividing every term by n
	// compounds a rounding step per iteration and made the means depend
	// on n twice over.
	type sums struct {
		met            int
		cost, makespan float64
	}
	ct, err := t.Check()
	if err != nil {
		return nil, err
	}
	acc := make([]sums, len(algs))
	for i := 0; i < n; i++ {
		wf, err := ct.Sample(seed + uint64(i))
		if err != nil {
			return nil, err
		}
		for a, alg := range algs {
			s, err := alg.Schedule(wf, opts)
			if err != nil {
				return nil, fmt.Errorf("sla: %s on instance %d: %w", alg.Name(), i, err)
			}
			if s.Makespan() <= deadline {
				acc[a].met++
			}
			acc[a].cost += s.TotalCost()
			acc[a].makespan += s.Makespan()
		}
	}
	ests := make([]Estimate, len(algs))
	for a, alg := range algs {
		ests[a] = Estimate{
			Strategy:        alg.Name(),
			MeetProbability: float64(acc[a].met) / float64(n),
			MeanCost:        acc[a].cost / float64(n),
			MeanMakespan:    acc[a].makespan / float64(n),
		}
	}
	return ests, nil
}

// CheapestMeeting evaluates all strategies over the same sampled
// instances and returns the cheapest one whose meet probability reaches
// the target, with all estimates for inspection (sorted by mean cost). If
// none qualifies, it returns the highest-probability strategy and
// ErrNoStrategyMeets.
func CheapestMeeting(t ndwf.Template, algs []sched.Algorithm, opts sched.Options,
	deadline, target float64, n int, seed uint64) (Estimate, []Estimate, error) {
	if target < 0 || target > 1 {
		return Estimate{}, nil, fmt.Errorf("sla: target probability %v outside [0, 1]", target)
	}
	if len(algs) == 0 {
		return Estimate{}, nil, fmt.Errorf("sla: no strategies given")
	}
	all, err := evaluate(t, algs, opts, deadline, n, seed)
	if err != nil {
		return Estimate{}, nil, err
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].MeanCost != all[j].MeanCost {
			return all[i].MeanCost < all[j].MeanCost
		}
		return all[i].Strategy < all[j].Strategy
	})
	for _, est := range all {
		if est.MeetProbability >= target {
			return est, all, nil
		}
	}
	best := all[0]
	bestP := math.Inf(-1)
	for _, est := range all {
		if est.MeetProbability > bestP {
			best, bestP = est, est.MeetProbability
		}
	}
	return best, all, ErrNoStrategyMeets
}

// ErrNoStrategyMeets reports that no evaluated strategy reached the target
// probability; the returned estimate is the closest one.
var ErrNoStrategyMeets = fmt.Errorf("sla: no strategy meets the target probability")
