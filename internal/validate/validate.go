// Package validate checks schedule invariants that every scheduling
// algorithm in this repository must preserve, independent of how the
// schedule was built:
//
//   - every task placed exactly once, with end = start + work/speedup;
//   - precedence: no task starts before each predecessor's finish plus the
//     transfer time when they sit on different VMs;
//   - exclusivity: a VM never runs two tasks at once;
//   - billing: lease spans cover all slots and costs match the billing
//     model — the paper's whole-BTU bill, or the lease's market terms
//     (granularity, spot pricing) when a market is in play.
//
// Beyond the static invariants, the package hosts the repository's
// differential correctness harness (see PlanSim, FaultReplay and Account
// in oracle.go): every planned schedule can be replayed through the
// discrete-event simulator and the two accountings cross-checked quantity
// by quantity. It is used by the test suites, by the experiment driver in
// paranoid mode, by the service's debug path, and by the fuzzer in
// internal/fuzzcheck.
package validate

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/plan"
)

// Eps is the single float tolerance every correctness decision in this
// repository shares — schedule invariants, plan↔sim agreement, billing
// boundaries (cloud.BTUs) and the Fig. 4 target-square classification
// (metrics.Point.InTargetSquare). One tolerance, everywhere: schedules
// near the Fig. 4 axes must classify identically in the tests, the sweep
// driver, and the oracles, and a lease span must bill the same number of
// BTUs no matter which layer rounds it. The underlying constant lives in
// package cloud (the bottom of the dependency graph, so the billing code
// can use it too); this re-export is the canonical name.
const Eps = cloud.Eps

// Close reports whether two quantities agree within Eps, scaled by their
// magnitude (see cloud.Close). All oracle comparisons go through it.
func Close(a, b float64) bool { return cloud.Close(a, b) }

// lt reports whether a is less than b beyond the shared tolerance — the
// strict-inequality counterpart of Close, used for ordering invariants
// ("starts before its input is ready", "overlaps the previous slot").
func lt(a, b float64) bool { return a < b && !Close(a, b) }

// Schedule verifies all invariants and returns the first violation found,
// or nil when the schedule is sound.
func Schedule(s *plan.Schedule) error {
	_, err := schedule(s)
	return err
}

// schedule is Schedule returning the totals its billing check computed,
// so the oracle compares them without billing the schedule again.
func schedule(s *plan.Schedule) (plan.Totals, error) {
	if err := placement(s); err != nil {
		return plan.Totals{}, err
	}
	if err := precedence(s); err != nil {
		return plan.Totals{}, err
	}
	if err := exclusivity(s); err != nil {
		return plan.Totals{}, err
	}
	return billing(s)
}

// placement checks the task-side bookkeeping: every task appears in exactly
// one slot of its assigned VM, with consistent times and the correct
// speed-up-scaled duration.
func placement(s *plan.Schedule) error {
	wf := s.Workflow
	n := wf.Len()
	if len(s.Placement) != n || len(s.Start) != n || len(s.End) != n {
		return fmt.Errorf("validate: bookkeeping sized %d/%d/%d for %d tasks",
			len(s.Placement), len(s.Start), len(s.End), n)
	}
	seen := make([]int, n)
	for _, vm := range s.VMs {
		for _, slot := range vm.Slots {
			id := int(slot.Task)
			if id < 0 || id >= n {
				return fmt.Errorf("validate: VM %d hosts unknown task %d", vm.ID, id)
			}
			seen[id]++
			if s.Placement[id] != vm.ID {
				return fmt.Errorf("validate: task %d in VM %d slots but Placement says %d",
					id, vm.ID, s.Placement[id])
			}
			if !Close(slot.Start, s.Start[id]) || !Close(slot.End, s.End[id]) {
				return fmt.Errorf("validate: task %d slot [%v,%v) disagrees with schedule [%v,%v)",
					id, slot.Start, slot.End, s.Start[id], s.End[id])
			}
			want := s.Platform.ExecTime(wf.Task(slot.Task).Work, vm.Type)
			// Compare end against start+want (absolute times) rather than
			// the subtracted duration: at large time offsets the rounding
			// error of End = Start+want exceeds any tolerance a duration-
			// space comparison could justify.
			if !Close(slot.End, slot.Start+want) {
				return fmt.Errorf("validate: task %d duration %v, want %v on %v",
					id, slot.End-slot.Start, want, vm.Type)
			}
		}
	}
	for id, c := range seen {
		if c != 1 {
			return fmt.Errorf("validate: task %d placed %d times", id, c)
		}
	}
	return nil
}

// precedence checks data dependencies including transfer delays.
func precedence(s *plan.Schedule) error {
	for _, e := range s.Workflow.Edges() {
		ready := s.End[e.From]
		from, to := s.TaskVM(e.From), s.TaskVM(e.To)
		if from.ID != to.ID {
			ready += s.Platform.TransferTime(e.Data, from.Type, to.Type)
		}
		if lt(s.Start[e.To], ready) {
			return fmt.Errorf("validate: task %d starts at %v before input from %d is ready at %v",
				e.To, s.Start[e.To], e.From, ready)
		}
	}
	return nil
}

// exclusivity checks that no VM overlaps two slots.
func exclusivity(s *plan.Schedule) error {
	for _, vm := range s.VMs {
		for i := 1; i < len(vm.Slots); i++ {
			prev, cur := vm.Slots[i-1], vm.Slots[i]
			if lt(cur.Start, prev.End) {
				return fmt.Errorf("validate: VM %d runs tasks %d and %d concurrently ([%v,%v) vs [%v,%v))",
					vm.ID, prev.Task, cur.Task, prev.Start, prev.End, cur.Start, cur.End)
			}
		}
	}
	return nil
}

// billing checks the BTU accounting and returns the schedule's totals.
// Held-but-idle leases (plan.VM.Held with no slots) are paid leases like
// any other and are included. Each VM is billed once here and once more
// by Totals, whose sums the per-VM bills must match.
func billing(s *plan.Schedule) (plan.Totals, error) {
	var cost, idle float64
	for _, vm := range s.VMs {
		if len(vm.Slots) == 0 && vm.Held <= 0 {
			continue // never leased: bills nothing
		}
		span := vm.Span()
		if span < -Eps {
			return plan.Totals{}, fmt.Errorf("validate: VM %d has negative lease span %v", vm.ID, span)
		}
		b := vm.Bill()
		if vm.Prepaid {
			// Private-cloud capacity: no bill, no BTU accounting.
			if b.Cost != 0 || b.Idle != 0 {
				return plan.Totals{}, fmt.Errorf("validate: prepaid VM %d bills cost %v, idle %v",
					vm.ID, b.Cost, b.Idle)
			}
			continue
		}
		// Market leases bill under their own terms (granularity, spot
		// price per interval); a nil lease is the legacy BTU bill. The
		// terms price the span LeaseStart and Span give through the single
		// eps-guarded rounding in cloud.Units, so a span on a billing
		// boundary decides the same way here as in the planner and the
		// simulator.
		paid, wantCost := vm.Lease.Bill(vm.LeaseStart(), span, vm.Type, vm.Region)
		if !Close(b.Cost, wantCost) {
			return plan.Totals{}, fmt.Errorf("validate: VM %d cost %v, want %v", vm.ID, b.Cost, wantCost)
		}
		if lt(paid, b.Busy) {
			return plan.Totals{}, fmt.Errorf("validate: VM %d busy %v exceeds paid %v", vm.ID, b.Busy, paid)
		}
		cost += b.Cost
		idle += b.Idle
	}
	t := s.Totals()
	if !Close(cost, t.Rental) {
		return plan.Totals{}, fmt.Errorf("validate: rental cost %v, VMs sum to %v", t.Rental, cost)
	}
	if !Close(idle, t.Idle) {
		return plan.Totals{}, fmt.Errorf("validate: idle %v, VMs sum to %v", t.Idle, idle)
	}
	return t, nil
}

// NotExceedLease verifies the defining property of the *NotExceed
// provisioning policies: whenever a VM hosts more than one task, no later
// slot pushes the lease past the BTU boundary that was already paid before
// the slot was appended. Algorithms built on Exceed policies will generally
// fail this check — it exists so tests can assert the distinction.
func NotExceedLease(s *plan.Schedule) error {
	for _, vm := range s.VMs {
		if vm.Prepaid {
			continue // no billing boundary to respect
		}
		for i := 1; i < len(vm.Slots); i++ {
			spanBefore := vm.Slots[i-1].End - vm.Slots[0].Start
			boundary := vm.Slots[0].Start + float64(cloud.BTUs(spanBefore))*cloud.BTU
			if lt(boundary, vm.Slots[i].End) {
				return fmt.Errorf("validate: VM %d slot %d ends at %v past paid boundary %v",
					vm.ID, i, vm.Slots[i].End, boundary)
			}
		}
	}
	return nil
}
