package metrics

import (
	"fmt"

	"repro/internal/plan"
)

// The paper's Sect. V closes the idle-time discussion with two
// observations: unused-but-paid VMs burn energy "for no intended purpose",
// and their idle time could be co-rented ("in a similar manner with what
// Amazon does with its spot instances"), partially reimbursing the user.
// This file quantifies both.

// EnergyModel converts VM time into energy. Powers are per core, in
// watts; defaults follow the paper's reference hardware (one EC2 compute
// unit ≈ a 1.0-1.2 GHz 2007 Opteron core: ~90 W busy, ~60 W idle at the
// host level per core served).
type EnergyModel struct {
	BusyWattsPerCore float64
	IdleWattsPerCore float64
}

// DefaultEnergyModel returns the reference power figures.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{BusyWattsPerCore: 90, IdleWattsPerCore: 60}
}

// Energy is the energy accounting of one schedule.
type Energy struct {
	BusyJ  float64 // energy spent computing
	IdleJ  float64 // energy spent holding paid-but-unused capacity
	TotalJ float64
	// WastedFraction is IdleJ / TotalJ.
	WastedFraction float64
}

// Energy computes the schedule's energy split. Each VM that ran a task
// contributes its core count times busy/idle durations at the model's
// powers, from one Bill.
func (m EnergyModel) Energy(s *plan.Schedule) Energy {
	var e Energy
	for _, vm := range s.VMs {
		if len(vm.Slots) == 0 {
			continue
		}
		cores := float64(vm.Type.Cores())
		b := vm.Bill()
		e.BusyJ += m.BusyWattsPerCore * cores * b.Busy
		e.IdleJ += m.IdleWattsPerCore * cores * b.Idle
	}
	e.TotalJ = e.BusyJ + e.IdleJ
	if e.TotalJ > 0 {
		e.WastedFraction = e.IdleJ / e.TotalJ
	}
	return e
}

// String renders the accounting in kWh.
func (e Energy) String() string {
	const kWh = 3.6e6
	return fmt.Sprintf("energy{busy: %.2f kWh, idle: %.2f kWh, wasted: %.0f%%}",
		e.BusyJ/kWh, e.IdleJ/kWh, 100*e.WastedFraction)
}

// CoRent estimates the money recovered by sub-leasing idle VM time at
// rate times the VM's own per-second price (rate in [0, 1]; Amazon's spot
// market historically cleared around 0.3-0.4 of on-demand). It returns the
// recovered amount and the effective cost after reimbursement, billing
// each VM once. It panics on rates outside [0, 1].
func CoRent(s *plan.Schedule, rate float64) (recovered, effectiveCost float64) {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("metrics: co-rent rate %v outside [0, 1]", rate))
	}
	var rental float64
	for _, vm := range s.VMs {
		b := vm.Bill()
		rental += b.Cost
		if len(vm.Slots) == 0 {
			continue
		}
		perSecond := vm.Region.Price(vm.Type) / 3600
		recovered += rate * b.Idle * perSecond
	}
	return recovered, rental + s.TransferCost() - recovered
}
