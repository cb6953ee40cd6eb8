package sim

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag/dagtest"
	"repro/internal/plan"
	"repro/internal/sched"
)

// These tests inject corrupted schedules into the simulator and assert it
// fails loudly instead of producing silently wrong measurements.

func TestSimDetectsDeadlockedQueues(t *testing.T) {
	// Two VMs whose queues reference each other's outputs in reversed
	// order: vm0 runs [b] (needs a), vm1 runs [a] but queued behind a
	// never-ready head. Construct directly: vm0 queue [b, a] where b needs
	// a — the head b waits for a, and a sits behind b on the same VM.
	w := dagtest.Chain(2, 100)
	s := mustSchedule(t, sched.Baseline(), w)
	// Merge both tasks onto VM 0 in reverse order.
	vm0 := s.VMs[0]
	vm0.Slots = []plan.Slot{
		{Task: 1, Start: 0, End: 100},
		{Task: 0, Start: 100, End: 200},
	}
	s.VMs = []*plan.VM{vm0}
	s.Placement[0] = vm0.ID
	s.Placement[1] = vm0.ID
	_, err := Run(s, Config{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestRunEmptyVMsAreFree(t *testing.T) {
	w := dagtest.Chain(1, 100)
	s := mustSchedule(t, sched.Baseline(), w)
	// Add an unused VM: it must not bill or deadlock.
	b := &plan.VM{ID: plan.VMID(len(s.VMs)), Type: cloud.XLarge, Region: cloud.USEastVirginia}
	s.VMs = append(s.VMs, b)
	res, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RentalCost != s.RentalCost() {
		t.Errorf("cost %v changed by an empty VM (want %v)", res.RentalCost, s.RentalCost())
	}
}
