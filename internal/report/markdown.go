package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// WriteMarkdown emits the sweep as a GitHub-flavoured markdown report: one
// gain/loss table per workflow and scenario plus the Table IV and Table V
// summaries — the format used to refresh EXPERIMENTS.md after model
// changes.
func WriteMarkdown(w io.Writer, s *core.Sweep) error {
	var b strings.Builder
	b.WriteString("# Sweep results\n")
	for _, sc := range s.Scenarios() {
		fmt.Fprintf(&b, "\n## %s scenario\n", sc)
		for _, wf := range s.Workflows() {
			fmt.Fprintf(&b, "\n### %s\n\n", wf)
			b.WriteString("| strategy | gain % | loss % | idle (s) | VMs | category |\n")
			b.WriteString("|---|---:|---:|---:|---:|---|\n")
			for _, r := range s.Points(wf, sc) {
				fmt.Fprintf(&b, "| %s | %.1f | %.1f | %.0f | %d | %s |\n",
					r.Strategy, r.Point.GainPct, r.Point.LossPct,
					r.Point.IdleTime, r.Point.VMCount, r.Category)
			}
		}
	}

	b.WriteString("\n## AllPar[Not]Exceed fluctuation (Table IV)\n\n")
	b.WriteString("| type |")
	for _, wf := range s.Workflows() {
		fmt.Fprintf(&b, " %s |", wf)
	}
	b.WriteString(" max interval | gain |\n|---|")
	for range s.Workflows() {
		b.WriteString("---|")
	}
	b.WriteString("---|---:|\n")
	for _, row := range s.Table4() {
		fmt.Fprintf(&b, "| %s |", row.Type)
		for _, wf := range s.Workflows() {
			fmt.Fprintf(&b, " %s |", row.LossByWorkflow[wf])
		}
		fmt.Fprintf(&b, " %s | %.0f%% |\n", row.MaxLoss, row.MeanGainPct)
	}

	recs, err := s.Table5()
	if err != nil {
		return err
	}
	b.WriteString("\n## Recommendations (Table V)\n\n")
	b.WriteString("| workflow | goal | strategy | gain % | savings % |\n|---|---|---|---:|---:|\n")
	for _, rec := range recs {
		fmt.Fprintf(&b, "| %s | %s | %s | %.1f | %.1f |\n",
			rec.Workflow, rec.Goal, rec.Strategy, rec.Point.GainPct, rec.Point.SavingsPct())
	}

	_, werr := io.WriteString(w, b.String())
	return werr
}
