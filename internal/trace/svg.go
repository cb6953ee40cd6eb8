package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cloud"
	"repro/internal/plan"
)

// SVG writes the schedule as a standalone SVG Gantt chart: one lane per
// VM, task blocks labelled with task names, paid-but-idle lease time
// hatched, and BTU boundaries as dashed vertical ticks. The output opens
// in any browser; no external tooling is needed.
func SVG(w io.Writer, s *plan.Schedule) error {
	const (
		laneH   = 28.0
		laneGap = 8.0
		leftPad = 120.0
		topPad  = 40.0
		chartW  = 900.0
	)
	// Horizon covers all paid lease time.
	horizon := s.Makespan()
	lanes := 0
	for _, vm := range s.VMs {
		if len(vm.Slots) == 0 {
			continue
		}
		lanes++
		bill := vm.Bill()
		if end := bill.Start + bill.Paid; end > horizon {
			horizon = end
		}
	}
	if horizon <= 0 || lanes == 0 {
		_, err := io.WriteString(w, `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="10" y="25">empty schedule</text></svg>`)
		return err
	}
	x := func(t float64) float64 { return leftPad + t/horizon*chartW }
	height := topPad + float64(lanes)*(laneH+laneGap) + 30

	tot := s.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" font-family="sans-serif" font-size="11">`+"\n",
		leftPad+chartW+20, height)
	fmt.Fprintf(&b, `<text x="%0.f" y="20" font-size="14">%s — makespan %.0fs, cost $%.3f, idle %.0fs</text>`+"\n",
		leftPad, escapeXML(s.Workflow.Name), tot.Makespan, tot.Cost(), tot.Idle)

	lane := 0
	for _, vm := range s.VMs {
		if len(vm.Slots) == 0 {
			continue
		}
		y := topPad + float64(lane)*(laneH+laneGap)
		lane++
		bill := vm.Bill()
		paidEnd := bill.Start + bill.Paid
		fmt.Fprintf(&b, `<text x="8" y="%.0f">vm%d (%s)</text>`+"\n", y+laneH-9, vm.ID, vm.Type)
		// Paid lease background (idle shows through as light grey).
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.0f" fill="#e8e8e8"/>`+"\n",
			x(bill.Start), y, x(paidEnd)-x(bill.Start), laneH)
		// Task blocks.
		for _, slot := range vm.Slots {
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.0f" fill="#4a90d9" stroke="#2a5a92"/>`+"\n",
				x(slot.Start), y, x(slot.End)-x(slot.Start), laneH)
			fmt.Fprintf(&b, `<text x="%.1f" y="%.0f" fill="white">%s</text>`+"\n",
				x(slot.Start)+3, y+laneH-9, escapeXML(s.Workflow.Task(slot.Task).Name))
		}
		// BTU boundary ticks.
		for t := bill.Start + cloud.BTU; t <= paidEnd+1e-9; t += cloud.BTU {
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#c00" stroke-dasharray="3,3"/>`+"\n",
				x(t), y-2, x(t), y+laneH+2)
		}
	}
	// Time axis.
	axisY := height - 12
	fmt.Fprintf(&b, `<line x1="%.0f" y1="%.0f" x2="%.0f" y2="%.0f" stroke="black"/>`+"\n",
		leftPad, axisY, leftPad+chartW, axisY)
	for i := 0; i <= 6; i++ {
		t := horizon * float64(i) / 6
		fmt.Fprintf(&b, `<text x="%.1f" y="%.0f">%.0fs</text>`+"\n", x(t)-10, axisY+11, t)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escapeXML(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace(s)
}
