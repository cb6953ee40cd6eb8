package sim

import (
	"math"

	"repro/internal/cloud"
	"repro/internal/fault"
	"repro/internal/plan"
)

// A Screen proves faulty replays quiet without running them. Until its
// first fault a replay follows the plan event for event, and every fault
// draw is a pure hash of its identity (DESIGN §5), so the draws a replay
// would make can be read off the plan's own timeline. A replay is quiet
// when both of these hold:
//
//   - no task's first attempt fails. This depends only on the workflow,
//     so NewScreen draws it once for every schedule of the workflow;
//   - every VM with slots outlives its exposure: its loss draws
//     (fault.Injector.Losses; VM i is incarnation i) fall after its last
//     slot's end, counted from the anchor the replay gives its lease,
//     plan.VM.LeaseStart (warm leases at 0, cold starts their delay
//     before the first slot).
//
// A quiet replay completes with no fault and returns the plan's own
// Makespan and RentalCost, bit for bit. The screen is conservative at
// ties: a loss within cloud.Eps of a VM's exposure end counts as a fault,
// since there the replay's event order decides, and a screen that says
// "not quiet" only costs the replay that would have run anyway.
type Screen struct {
	inj *fault.Injector // nil screens nothing quiet
}

// NewScreen returns the screen of replays under cfg of schedules of an
// n-task workflow, rejecting cfg with the error Run would. Only faulty
// replays of pre-booted plans follow the plan's timeline, so under a
// config with no active fault model or a non-zero BootTime, Quiet always
// reports false.
func NewScreen(cfg Config, n int) (Screen, error) {
	inj, err := cfg.injector()
	if err != nil || inj == nil || cfg.BootTime != 0 {
		return Screen{}, err
	}
	for task := 0; task < n; task++ {
		if fails, _ := inj.AttemptFails(task, 1); fails {
			return Screen{}, nil
		}
	}
	return Screen{inj: inj}, nil
}

// Quiet reports whether the replay of s provably sees no fault.
func (q Screen) Quiet(s *plan.Schedule) bool {
	if q.inj == nil {
		return false
	}
	for i, vm := range s.VMs {
		if len(vm.Slots) == 0 {
			continue // a replay never arms an empty lease
		}
		crash, preempt := q.inj.Losses(uint64(i), vm.Lease.IsSpot())
		loss := min(crash, preempt)
		if math.IsInf(loss, 1) {
			continue
		}
		at, end := vm.LeaseStart()+loss, vm.Slots[len(vm.Slots)-1].End
		if at <= end || cloud.Close(at, end) {
			return false
		}
	}
	return true
}
