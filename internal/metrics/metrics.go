// Package metrics computes the paper's evaluation quantities: makespan
// gain and cost loss/savings relative to the HEFT + OneVMperTask-small
// baseline (the filled square of Fig. 4), idle time (Fig. 5), and the
// gain-vs-savings classification used to assemble Table III, and the user
// goals Table V recommends for.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/validate"
)

// Point is one strategy's outcome for one workflow/scenario, in the
// coordinates of the paper's Fig. 4: percentage makespan gain on the x-axis
// and percentage monetary loss on the y-axis (negative loss = savings).
type Point struct {
	Strategy string
	// GainPct is 100·(makespan_base − makespan)/makespan_base.
	GainPct float64
	// LossPct is 100·(cost − cost_base)/cost_base; SavingsPct is its
	// negation.
	LossPct float64
	// Absolute quantities backing the percentages.
	Makespan float64
	Cost     float64
	IdleTime float64
	VMCount  int
}

// SavingsPct returns the savings percentage (positive = cheaper than the
// baseline).
func (p Point) SavingsPct() float64 { return -p.LossPct }

// InTargetSquare reports whether the strategy achieves both gain and
// savings — the upper-left quadrant square highlighted in Fig. 4. The
// rounding band is the repository-wide validate.Eps so that points on the
// axes classify identically here and in Classify.
func (p Point) InTargetSquare() bool {
	return p.GainPct >= -validate.Eps && p.LossPct <= validate.Eps
}

// String renders the point in a compact diagnostic form.
func (p Point) String() string {
	return fmt.Sprintf("%s{gain: %.1f%%, loss: %.1f%%, makespan: %.0fs, cost: $%.3f}",
		p.Strategy, p.GainPct, p.LossPct, p.Makespan, p.Cost)
}

// Compare evaluates a schedule against the baseline schedule and returns
// its Fig. 4 point, billing each VM of either schedule once. It panics if
// the baseline has zero makespan or cost (impossible for non-empty
// workflows with positive work).
func Compare(strategy string, s, baseline *plan.Schedule) Point {
	return CompareTotals(strategy, s.Totals(), baseline.Totals())
}

// CompareTotals is Compare on totals already billed — how the sweep
// driver bills each pane's baseline once for all its cells.
func CompareTotals(strategy string, s, baseline plan.Totals) Point {
	baseMk, baseCost := baseline.Makespan, baseline.Cost()
	if baseMk <= 0 || baseCost <= 0 {
		panic(fmt.Sprintf("metrics: degenerate baseline (makespan %v, cost %v)", baseMk, baseCost))
	}
	cost := s.Cost()
	return Point{
		Strategy: strategy,
		GainPct:  100 * (baseMk - s.Makespan) / baseMk,
		LossPct:  100 * (cost - baseCost) / baseCost,
		Makespan: s.Makespan,
		Cost:     cost,
		IdleTime: s.Idle,
		VMCount:  s.VMs,
	}
}

// Category classifies a strategy's gain/savings trade-off, following the
// three columns of the paper's Table III.
type Category int

// The Table III columns, plus the out-of-square bucket.
const (
	// SavingsDominant: 0 <= gain% < savings%.
	SavingsDominant Category = iota
	// GainDominant: 0 <= savings% < gain%.
	GainDominant
	// Balanced: gain% ≈ savings%, both non-negative.
	Balanced
	// OutOfSquare: the strategy loses on at least one axis.
	OutOfSquare
)

// String names the category as in Table III's column headers.
func (c Category) String() string {
	switch c {
	case SavingsDominant:
		return "0<=gain<savings"
	case GainDominant:
		return "0<=savings<gain"
	case Balanced:
		return "gain~savings"
	case OutOfSquare:
		return "out-of-square"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Goal is a user objective for strategy selection: the three columns of
// the paper's Table V, which core.Recommend and frontier.Explore score.
type Goal int

// The three objectives of Table V.
const (
	Savings Goal = iota
	Gain
	Balance
)

// Goals lists all objectives.
func Goals() []Goal { return []Goal{Savings, Gain, Balance} }

// String names the goal as in Table V's column headers.
func (g Goal) String() string {
	switch g {
	case Savings:
		return "Savings"
	case Gain:
		return "Gain"
	case Balance:
		return "Balance"
	}
	return fmt.Sprintf("Goal(%d)", int(g))
}

// BalancedTolerance is the band (in percentage points) within which gain
// and savings count as approximately equal for Table III's third column.
const BalancedTolerance = 5.0

// Classify buckets a point into its Table III category. Points outside the
// target square (negative gain or negative savings beyond rounding) fall
// into OutOfSquare.
func Classify(p Point) Category {
	gain, savings := p.GainPct, p.SavingsPct()
	if gain < -validate.Eps || savings < -validate.Eps {
		return OutOfSquare
	}
	if math.Abs(gain-savings) <= BalancedTolerance {
		return Balanced
	}
	if gain < savings {
		return SavingsDominant
	}
	return GainDominant
}

// Interval is a closed numeric range, used for the loss intervals of
// Table IV.
type Interval struct{ Lo, Hi float64 }

// String formats the interval in the paper's style, e.g. "[-62, 0]".
func (iv Interval) String() string { return fmt.Sprintf("[%.0f, %.0f]", iv.Lo, iv.Hi) }

// LossInterval returns the smallest interval covering the loss percentages
// of the given points — the per-workflow columns of Table IV. It panics on
// an empty input.
func LossInterval(points []Point) Interval {
	if len(points) == 0 {
		panic("metrics: LossInterval of no points")
	}
	iv := Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	for _, p := range points {
		iv.Lo = math.Min(iv.Lo, p.LossPct)
		iv.Hi = math.Max(iv.Hi, p.LossPct)
	}
	return iv
}

// MeanGain returns the average gain percentage of the points — the "stable
// gain" column of Table IV. It panics on an empty input.
func MeanGain(points []Point) float64 {
	if len(points) == 0 {
		panic("metrics: MeanGain of no points")
	}
	var sum float64
	for _, p := range points {
		sum += p.GainPct
	}
	return sum / float64(len(points))
}
