package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper evaluates a single Pareto draw per workflow. MultiSeed
// re-runs the sweep across many seeds and summarizes each strategy's gain
// and loss distributions, quantifying how robust the Table III
// classification is to the workload draw — a prerequisite for trusting the
// adaptive-scheduling recommendations.

// Stability summarizes one strategy's behaviour on one workflow across
// seeds (Pareto scenario only; the other scenarios are deterministic).
type Stability struct {
	Workflow string
	Strategy string
	Gain     stats.Summary // gain% across seeds
	Loss     stats.Summary // loss% across seeds
	// GainCI and LossCI are 95% percentile-bootstrap confidence intervals
	// for the mean gain and loss.
	GainCI stats.CI
	LossCI stats.CI
	// InSquareFraction is the fraction of seeds where the strategy landed
	// in the target square (gain >= 0 and loss <= 0).
	InSquareFraction float64
}

// MultiSeed runs the Pareto sweep for seeds seed0..seed0+n-1 and returns
// per-(workflow, strategy) stability summaries, ordered by workflow then
// catalog position.
func MultiSeed(cfg Config, seed0 uint64, n int) ([]Stability, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive seed count %d", n)
	}
	cfg = cfg.Fill()
	cfg.Scenarios = []workload.Scenario{workload.Pareto}

	type acc struct {
		gains, losses []float64
		inSquare      int
	}
	accs := map[Key]*acc{}
	var strategies []string
	for i := 0; i < n; i++ {
		cfg.Seed = seed0 + uint64(i)
		s, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		if strategies == nil {
			strategies = s.Strategies
		}
		for _, wf := range s.Workflows() {
			for _, r := range s.Points(wf, workload.Pareto) {
				key := Key{Workflow: wf, Strategy: r.Strategy}
				a := accs[key]
				if a == nil {
					a = &acc{}
					accs[key] = a
				}
				a.gains = append(a.gains, r.Point.GainPct)
				a.losses = append(a.losses, r.Point.LossPct)
				if r.Point.InTargetSquare() {
					a.inSquare++
				}
			}
		}
	}

	var out []Stability
	for _, wf := range cfg.WorkflowOrder {
		for _, strat := range strategies {
			a := accs[Key{Workflow: wf, Strategy: strat}]
			if a == nil {
				continue
			}
			out = append(out, Stability{
				Workflow:         wf,
				Strategy:         strat,
				Gain:             stats.Summarize(a.gains),
				Loss:             stats.Summarize(a.losses),
				GainCI:           stats.BootstrapMeanCI(a.gains, 0.95, 1000, seed0),
				LossCI:           stats.BootstrapMeanCI(a.losses, 0.95, 1000, seed0),
				InSquareFraction: float64(a.inSquare) / float64(n),
			})
		}
	}
	return out, nil
}
