// Package trace renders schedules as per-VM Gantt charts in the style of
// the paper's Fig. 1: each VM is a row of task blocks, idle stretches are
// marked with 'i', and '|' ticks mark the BTU boundaries of the lease.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cloud"
	"repro/internal/plan"
)

// Gantt renders the schedule with the given chart width in characters.
// Time is scaled so that the later of the makespan and the last paid BTU
// boundary fills the width.
func Gantt(s *plan.Schedule, width int) string {
	if width < 10 {
		width = 10
	}
	// Horizon: cover all paid lease time. A lease that billed without
	// running anything (nonzero PaidSeconds, zero slots) still stretches
	// the horizon — paid-but-idle capacity must be visible.
	horizon := s.Makespan()
	for _, vm := range s.VMs {
		bill := vm.Bill()
		if bill.Paid == 0 {
			continue
		}
		if end := bill.Start + bill.Paid; end > horizon {
			horizon = end
		}
	}
	if horizon <= 0 {
		return "(empty schedule)\n"
	}
	col := func(t float64) int {
		c := int(t / horizon * float64(width))
		if c > width {
			c = width
		}
		return c
	}

	tot := s.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "%s  makespan %.0fs  cost $%.3f  idle %.0fs\n",
		s.Workflow.Name, tot.Makespan, tot.Cost(), tot.Idle)
	for _, vm := range s.VMs {
		bill := vm.Bill()
		if len(vm.Slots) == 0 && bill.Paid == 0 {
			continue
		}
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		// Paid lease background: idle is 'i'.
		start, paidEnd := bill.Start, bill.Start+bill.Paid
		for c := col(start); c < col(paidEnd) && c < width; c++ {
			row[c] = 'i'
		}
		// Task blocks drawn over the background, labelled by task ID mod 10.
		for _, slot := range vm.Slots {
			mark := rune('0' + int(slot.Task)%10)
			from, to := col(slot.Start), col(slot.End)
			if to == from {
				to = from + 1 // always visible
			}
			for c := from; c < to && c < width; c++ {
				row[c] = mark
			}
		}
		// BTU boundary ticks.
		for t := start + cloud.BTU; t < paidEnd+1; t += cloud.BTU {
			if c := col(t); c > 0 && c <= width {
				row[c-1] = '|'
			}
		}
		fmt.Fprintf(&b, "vm%-3d %-7s [%s]\n", vm.ID, vm.Type, string(row))
	}
	return b.String()
}

// WriteCSV emits the schedule's slots as CSV (one row per task execution:
// vm, type, region, task, name, start, end), the machine-readable
// counterpart of the Gantt chart for external timeline tooling.
func WriteCSV(w io.Writer, s *plan.Schedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"vm", "type", "region", "task", "name", "start_s", "end_s"}); err != nil {
		return err
	}
	for _, vm := range s.VMs {
		for _, slot := range vm.Slots {
			row := []string{
				strconv.Itoa(int(vm.ID)),
				vm.Type.String(),
				vm.Region.String(),
				strconv.Itoa(int(slot.Task)),
				s.Workflow.Task(slot.Task).Name,
				strconv.FormatFloat(slot.Start, 'f', 3, 64),
				strconv.FormatFloat(slot.End, 'f', 3, 64),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
