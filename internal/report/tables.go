package report

import (
	"fmt"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Table1 renders the static provisioning/allocation pairing of the paper's
// Table I.
func Table1() string {
	rows := [][4]string{
		{"Provisioning", "Task ordering", "Allocation", "Parallelism reduction"},
		{"OneVMperTask", "priority ranking", "HEFT, CPA-Eager, GAIN", "no"},
		{"StartParNotExceed", "priority ranking", "HEFT", "no"},
		{"StartParExceed", "priority ranking", "HEFT", "no"},
		{"AllParNotExceed", "level ranking + ET descending", "AllPar1LnS", "yes"},
		{"AllParNotExceed", "level ranking + ET descending", "AllPar1LnSDyn", "yes"},
	}
	var b strings.Builder
	b.WriteString("Table I: provisioning and allocation policies\n")
	for i, r := range rows {
		fmt.Fprintf(&b, "  %-18s %-30s %-22s %s\n", r[0], r[1], r[2], r[3])
		if i == 0 {
			fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 80))
		}
	}
	return b.String()
}

// Table2 renders the EC2 price list (paper Table II) from the platform
// model.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table II: Amazon EC2 prices (Oct 31st 2012), USD per BTU\n")
	fmt.Fprintf(&b, "  %-20s %8s %8s %8s %8s %10s\n",
		"region", "small", "medium", "large", "xlarge", "transfer")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 70))
	for _, r := range cloud.Regions() {
		fmt.Fprintf(&b, "  %-20s %8.3f %8.3f %8.3f %8.3f %10.3f\n",
			r, r.Price(cloud.Small), r.Price(cloud.Medium),
			r.Price(cloud.Large), r.Price(cloud.XLarge), r.TransferOutPrice())
	}
	return b.String()
}

// Table3 renders the sweep's gain/savings classification in the layout of
// the paper's Table III.
func Table3(s *core.Sweep) string {
	var b strings.Builder
	b.WriteString("Table III: strategies offering gain or savings (vs. OneVMperTask-s)\n")
	cats := []metrics.Category{metrics.SavingsDominant, metrics.GainDominant, metrics.Balanced}
	current := ""
	for _, row := range s.Table3() {
		if sc := row.Scenario.String(); sc != current {
			current = sc
			fmt.Fprintf(&b, "\n== %s ==\n", sc)
		}
		fmt.Fprintf(&b, "  %s:\n", row.Workflow)
		for _, cat := range cats {
			groups := row.Groups[cat]
			if len(groups) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-18s %s\n", cat.String()+":", core.FormatGroups(groups))
		}
	}
	return b.String()
}

// Table4 renders the AllPar[Not]Exceed fluctuation summary (paper
// Table IV).
func Table4(s *core.Sweep) string {
	var b strings.Builder
	b.WriteString("Table IV: savings fluctuation vs. stable gain for AllPar[Not]Exceed\n")
	fmt.Fprintf(&b, "  %-8s", "type")
	for _, wf := range s.Workflows() {
		fmt.Fprintf(&b, " %14s", wf)
	}
	fmt.Fprintf(&b, " %14s %8s\n", "max interval", "gain")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 10+15*(len(s.Workflows())+1)+9))
	for _, row := range s.Table4() {
		fmt.Fprintf(&b, "  %-8s", row.Type)
		for _, wf := range s.Workflows() {
			fmt.Fprintf(&b, " %14s", row.LossByWorkflow[wf])
		}
		fmt.Fprintf(&b, " %14s %7.0f%%\n", row.MaxLoss, row.MeanGainPct)
	}
	return b.String()
}

// Table5 renders the recommendation summary (paper Table V): the strategy
// to pick per workflow class and user goal.
func Table5(s *core.Sweep) (string, error) {
	recs, err := s.Table5()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table V: recommended strategy per workflow class and goal\n")
	fmt.Fprintf(&b, "  %-12s %-10s %-22s %10s %10s\n",
		"workflow", "goal", "strategy", "gain%", "savings%")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 70))
	for _, rec := range recs {
		fmt.Fprintf(&b, "  %-12s %-10s %-22s %10.1f %10.1f\n",
			rec.Workflow, rec.Goal, rec.Strategy,
			rec.Point.GainPct, rec.Point.SavingsPct())
	}
	return b.String(), nil
}
