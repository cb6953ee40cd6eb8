package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Table3Row is one workflow/scenario row of the paper's Table III: the
// strategies that land in the target square, bucketed by their
// gain/savings balance. Strategies with identical outcomes are grouped
// into one equivalence group, mirroring the paper's "A = B" notation.
type Table3Row struct {
	Workflow string
	Scenario workload.Scenario
	// Groups maps each category to its strategy groups; strategies within
	// one inner slice produced identical (gain, loss) results.
	Groups map[metrics.Category][][]string
}

// Table3 classifies the sweep following Table III. Only strategies inside
// the target square (non-negative gain and savings) appear.
func (s *Sweep) Table3() []Table3Row {
	var rows []Table3Row
	for _, sc := range s.Scenarios() {
		for _, wf := range s.Workflows() {
			row := Table3Row{Workflow: wf, Scenario: sc,
				Groups: map[metrics.Category][][]string{}}
			byOutcome := map[[2]float64][]string{}
			var order [][2]float64
			for _, r := range s.Points(wf, sc) {
				if r.Category == metrics.OutOfSquare {
					continue
				}
				key := [2]float64{round1(r.Point.GainPct), round1(r.Point.LossPct)}
				if _, seen := byOutcome[key]; !seen {
					order = append(order, key)
				}
				byOutcome[key] = append(byOutcome[key], r.Strategy)
			}
			for _, key := range order {
				group := byOutcome[key]
				cat := metrics.Classify(metrics.Point{GainPct: key[0], LossPct: key[1]})
				row.Groups[cat] = append(row.Groups[cat], group)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// round1 rounds to one decimal so that float noise does not split
// equivalence groups.
func round1(x float64) float64 { return math.Round(x*10) / 10 }

// FormatGroups renders equivalence groups in the paper's style:
// "A = B, C".
func FormatGroups(groups [][]string) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = strings.Join(g, " = ")
	}
	return strings.Join(parts, ", ")
}

// Table4Row is one instance-type row of the paper's Table IV: the loss
// interval the AllPar[Not]Exceed pair spans per workflow (across all
// scenarios), their overall maximum interval, and their mean gain.
type Table4Row struct {
	Type           cloud.InstanceType
	LossByWorkflow map[string]metrics.Interval
	MaxLoss        metrics.Interval
	MeanGainPct    float64
}

// Table4 aggregates the AllPar[Not]Exceed strategies per instance type
// over every workflow and scenario, reproducing Table IV's structure: the
// savings fluctuate per workflow while the gain stays pinned to the
// instance speed-up.
func (s *Sweep) Table4() []Table4Row {
	var rows []Table4Row
	for _, typ := range []cloud.InstanceType{cloud.Small, cloud.Medium, cloud.Large} {
		strategies := []string{
			"AllParExceed-" + typ.Suffix(),
			"AllParNotExceed-" + typ.Suffix(),
		}
		row := Table4Row{Type: typ, LossByWorkflow: map[string]metrics.Interval{}}
		var all []metrics.Point
		for _, wf := range s.Workflows() {
			var pts []metrics.Point
			for _, sc := range s.Scenarios() {
				for _, strat := range strategies {
					if r, ok := s.Get(wf, sc, strat); ok {
						pts = append(pts, r.Point)
					}
				}
			}
			if len(pts) == 0 {
				continue
			}
			row.LossByWorkflow[wf] = metrics.LossInterval(pts)
			all = append(all, pts...)
		}
		if len(all) == 0 {
			continue
		}
		row.MaxLoss = metrics.LossInterval(all)
		row.MeanGainPct = metrics.MeanGain(all)
		rows = append(rows, row)
	}
	return rows
}

// Goal is a user objective for strategy selection (the axes of Table V).
type Goal int

// The three objectives of Table V.
const (
	Savings Goal = iota
	GainGoal
	Balance
)

// Goals lists all objectives.
func Goals() []Goal { return []Goal{Savings, GainGoal, Balance} }

// String names the goal as in Table V's column headers.
func (g Goal) String() string {
	switch g {
	case Savings:
		return "Savings"
	case GainGoal:
		return "Gain"
	case Balance:
		return "Balance"
	}
	return fmt.Sprintf("Goal(%d)", int(g))
}

// Recommendation is one cell of the paper's Table V: the strategy to pick
// for a workflow class and user goal, with its supporting numbers.
type Recommendation struct {
	Workflow string
	Goal     Goal
	Strategy string
	Point    metrics.Point
}

// Recommend picks the best strategy for a workflow under a goal,
// aggregating each strategy's points across the sweep's scenarios:
//
//   - Savings: the highest mean savings among strategies that never lose
//     money in any scenario;
//   - Gain: the highest mean gain among strategies whose mean savings stay
//     non-negative (a bad scenario may lose as long as the average does
//     not); if no strategy qualifies, the constraint falls back to all
//     strategies (the paper notes pure gain often requires paying);
//   - Balance: the largest mean min(gain, savings) among strategies with
//     non-negative mean gain and savings.
//
// This is the paper's "adaptive scheduling" conclusion turned into an API:
// given workflow properties and a goal, select the SA + provisioning
// combination.
func (s *Sweep) Recommend(wf string, goal Goal) (Recommendation, error) {
	type agg struct {
		name                 string
		meanGain, meanSaving float64
		minGain, minSaving   float64
		n                    int
	}
	var aggs []agg
	for _, name := range s.Strategies {
		a := agg{name: name, minGain: math.Inf(1), minSaving: math.Inf(1)}
		for _, sc := range s.Scenarios() {
			r, ok := s.Get(wf, sc, name)
			if !ok {
				continue
			}
			a.meanGain += r.Point.GainPct
			a.meanSaving += r.Point.SavingsPct()
			a.minGain = math.Min(a.minGain, r.Point.GainPct)
			a.minSaving = math.Min(a.minSaving, r.Point.SavingsPct())
			a.n++
		}
		if a.n > 0 {
			a.meanGain /= float64(a.n)
			a.meanSaving /= float64(a.n)
			aggs = append(aggs, a)
		}
	}
	if len(aggs) == 0 {
		return Recommendation{}, fmt.Errorf("core: no results for workflow %q", wf)
	}

	score := func(a agg) (float64, bool) {
		const eps = -1e-9
		switch goal {
		case Savings:
			return a.meanSaving, a.minSaving >= eps
		case GainGoal:
			return a.meanGain, a.meanSaving >= eps
		case Balance:
			return math.Min(a.meanGain, a.meanSaving), a.meanGain >= eps && a.meanSaving >= eps
		}
		panic(fmt.Sprintf("core: invalid goal %d", int(goal)))
	}

	pick := func(requireEligible bool) (agg, bool) {
		best, found := agg{}, false
		bestScore := math.Inf(-1)
		for _, a := range aggs {
			sc, eligible := score(a)
			if requireEligible && !eligible {
				continue
			}
			if !found || sc > bestScore || (sc == bestScore && a.name < best.name) {
				best, bestScore, found = a, sc, true
			}
		}
		return best, found
	}

	best, found := pick(true)
	if !found {
		best, _ = pick(false)
	}
	// Report the Pareto-scenario point as the representative outcome.
	rep, ok := s.Get(wf, workload.Pareto, best.name)
	if !ok {
		rep = s.MustGet(wf, s.Scenarios()[0], best.name)
	}
	return Recommendation{Workflow: wf, Goal: goal, Strategy: best.name, Point: rep.Point}, nil
}

// Table5 assembles the recommendation summary for every workflow and goal.
func (s *Sweep) Table5() ([]Recommendation, error) {
	var out []Recommendation
	for _, wf := range s.Workflows() {
		for _, g := range Goals() {
			rec, err := s.Recommend(wf, g)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
	return out, nil
}
