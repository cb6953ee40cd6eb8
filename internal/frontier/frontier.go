// Package frontier implements the paper's announced future work (Sect.
// VI): mapping the *boundaries* of the Table V classification — for which
// combinations of workflow structure (parallel width) and execution-time
// properties (heterogeneity, task length relative to the BTU) does each
// strategy win? It sweeps a parametric family of synthetic workflows
// across those axes and records, per user goal, the winning strategy, so
// the Table V recommendations can be refined from four workflow classes to
// a continuous map.
package frontier

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workflows"
)

// Config bounds the exploration grid.
type Config struct {
	// Widths lists the parallel widths of the synthetic layered workflow
	// (depth is fixed to Depth levels).
	Widths []int
	// Depth is the number of parallel levels (default 3).
	Depth int
	// Alphas lists the Pareto shape parameters for execution times: small
	// alpha = heavy tail = heterogeneous tasks; large alpha = near-uniform.
	Alphas []float64
	// Scales lists mean task lengths as fractions of one BTU.
	Scales []float64
	// Seed drives the draws; Reps averages several draws per cell.
	Seed uint64
	Reps int
	// Strategies to race; nil selects the 19-strategy catalog.
	Strategies []sched.Algorithm
	// Platform/Region as elsewhere; zero values select the defaults.
	Opts sched.Options
}

// Point identifies one grid cell.
type Point struct {
	Width int
	Alpha float64
	Scale float64
}

// String renders the coordinates compactly.
func (p Point) String() string {
	return fmt.Sprintf("w=%d alpha=%.1f scale=%.1f", p.Width, p.Alpha, p.Scale)
}

// Cell is the exploration outcome at one point: the winning strategy per
// goal, averaged over the repetitions.
type Cell struct {
	Point
	// Winner maps each goal to the strategy with the best mean score.
	Winner map[metrics.Goal]string
	// Score maps each goal to the winning mean score (savings%, gain%, or
	// min(gain, savings)% respectively).
	Score map[metrics.Goal]float64
}

// Explore sweeps the grid and returns one cell per point, ordered by
// (Scale, Alpha, Width).
func Explore(cfg Config) ([]Cell, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = 3
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	if cfg.Strategies == nil {
		cfg.Strategies = sched.Catalog()
	}
	if cfg.Opts.Platform == nil {
		cfg.Opts = sched.DefaultOptions()
	}
	if len(cfg.Widths) == 0 || len(cfg.Alphas) == 0 || len(cfg.Scales) == 0 {
		return nil, fmt.Errorf("frontier: empty axis")
	}
	// Every axis value is checked before the first cell is scheduled.
	for _, width := range cfg.Widths {
		if width < 1 {
			return nil, fmt.Errorf("frontier: width %d below 1", width)
		}
	}
	for _, alpha := range cfg.Alphas {
		if !(alpha > 1) || math.IsInf(alpha, 1) {
			return nil, fmt.Errorf("frontier: alpha %v is not a finite shape above 1 (the Pareto mean must be finite)", alpha)
		}
	}
	for _, scale := range cfg.Scales {
		if !(scale > 0) || math.IsInf(scale*cloud.BTU, 1) {
			return nil, fmt.Errorf("frontier: scale %v is not a positive finite task length", scale)
		}
	}
	baseline := sched.Baseline()
	var cells []Cell
	r := stats.NewRNG(cfg.Seed)
	for _, scale := range cfg.Scales {
		for _, alpha := range cfg.Alphas {
			for _, width := range cfg.Widths {
				point := Point{Width: width, Alpha: alpha, Scale: scale}
				// Mean execution time scale·BTU; Pareto xm follows from
				// mean = alpha·xm/(alpha−1).
				mean := scale * cloud.BTU
				xm := mean * (alpha - 1) / alpha
				dist := stats.Pareto{Alpha: alpha, Xm: xm}

				sums := map[metrics.Goal]map[string]float64{}
				for _, g := range metrics.Goals() {
					sums[g] = map[string]float64{}
				}
				for rep := 0; rep < cfg.Reps; rep++ {
					wf := workflows.Layered(cfg.Depth, width)
					draw := r.Split()
					wf.SetWork(func(dag.Task) float64 { return dist.Sample(draw) })
					wf.SetData(func(dag.Edge) float64 { return 0 })
					base, err := baseline.Schedule(wf, cfg.Opts)
					if err != nil {
						return nil, fmt.Errorf("frontier: %s: %w", point, err)
					}
					for _, alg := range cfg.Strategies {
						s, err := alg.Schedule(wf, cfg.Opts)
						if err != nil {
							return nil, fmt.Errorf("frontier: %s/%s: %w", point, alg.Name(), err)
						}
						p := metrics.Compare(alg.Name(), s, base)
						sums[metrics.Savings][alg.Name()] += p.SavingsPct()
						sums[metrics.Gain][alg.Name()] += p.GainPct
						sums[metrics.Balance][alg.Name()] += math.Min(p.GainPct, p.SavingsPct())
					}
				}
				cell := Cell{Point: point, Winner: map[metrics.Goal]string{}, Score: map[metrics.Goal]float64{}}
				for _, g := range metrics.Goals() {
					name, score := best(sums[g])
					cell.Winner[g] = name
					cell.Score[g] = score / float64(cfg.Reps)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// best returns the highest-scoring strategy, breaking ties by name for
// determinism.
func best(scores map[string]float64) (string, float64) {
	names := make([]string, 0, len(scores))
	for n := range scores {
		names = append(names, n)
	}
	sort.Strings(names)
	bestName, bestScore := "", math.Inf(-1)
	for _, n := range names {
		if scores[n] > bestScore {
			bestName, bestScore = n, scores[n]
		}
	}
	return bestName, bestScore
}

// Render draws one boundary map per goal: rows are (scale, alpha)
// combinations, columns the widths, cells the winning strategy.
func Render(cells []Cell, cfg Config) string {
	var b strings.Builder
	for _, g := range metrics.Goals() {
		fmt.Fprintf(&b, "== winning strategy per (scale, alpha) x width — goal: %s ==\n", g)
		fmt.Fprintf(&b, "  %-22s", "scale x alpha \\ width")
		for _, w := range cfg.Widths {
			fmt.Fprintf(&b, " %-20d", w)
		}
		b.WriteByte('\n')
		for _, scale := range cfg.Scales {
			for _, alpha := range cfg.Alphas {
				fmt.Fprintf(&b, "  %.1f BTU, a=%.1f%9s", scale, alpha, "")
				for _, w := range cfg.Widths {
					name := lookup(cells, Point{Width: w, Alpha: alpha, Scale: scale}, g)
					fmt.Fprintf(&b, " %-20s", name)
				}
				b.WriteByte('\n')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(cells []Cell, p Point, g metrics.Goal) string {
	for _, c := range cells {
		if c.Point == p {
			return c.Winner[g]
		}
	}
	return "?"
}
