package sla

import (
	"fmt"
	"strings"
)

// Render formats a search result as the text report the CLIs print: one
// row per sampled candidate in cost order (the selected one starred),
// the pruned candidates with their bounds, and the verdict line.
func Render(sr SearchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadline %.0f s at P >= %.2f\n\n", sr.Deadline, sr.Target)
	fmt.Fprintf(&b, "  %-22s %-14s %7s %15s %10s %10s %10s\n",
		"strategy", "market", "P(meet)", fmt.Sprintf("%.0f%% CI", 100*CILevel), "mean (s)", "p90 (s)", "cost ($)")
	for i := range sr.Results {
		r := &sr.Results[i]
		mark := " "
		if sr.Best == r {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s %-22s %-14s %7.2f [%5.2f, %5.2f] %10.1f %10.1f %10.4f\n",
			mark, r.Strategy, r.Market, r.MeetProbability,
			r.MeetCI.Lo, r.MeetCI.Hi, r.Makespan.Mean, r.Makespan.P90, r.Cost.Mean)
	}
	if len(sr.Pruned) > 0 {
		fmt.Fprintf(&b, "\npruned by analytic bound (certain minimum beyond the deadline):\n")
		for _, p := range sr.Pruned {
			fmt.Fprintf(&b, "  %-22s %-14s min %.1f s\n", p.Strategy, p.Market, p.Bound.MinMakespan)
		}
	}
	b.WriteString("\n")
	switch {
	case sr.Best == nil:
		fmt.Fprintf(&b, "verdict: every candidate pruned — the deadline is below the certain minimum\n")
	case sr.Best.MeetProbability >= sr.Target:
		fmt.Fprintf(&b, "verdict: %s under %s meets the deadline with p = %.2f at $%.4f mean cost\n",
			sr.Best.Strategy, sr.Best.Market, sr.Best.MeetProbability, sr.Best.Cost.Mean)
	default:
		fmt.Fprintf(&b, "verdict: no candidate reaches P >= %.2f; closest is %s under %s at p = %.2f\n",
			sr.Target, sr.Best.Strategy, sr.Best.Market, sr.Best.MeetProbability)
	}
	return b.String()
}
