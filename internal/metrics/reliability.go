package metrics

import (
	"fmt"
	"math"

	"repro/internal/plan"
	"repro/internal/sim"
)

// Reliability quantifies how one strategy's plan survives an imperfect
// cloud: the degradation a faulty replay (internal/sim with a fault model)
// adds on top of the fault-free plan. It is the reliability companion of
// the Point comparison — where Point ranks strategies in the best case,
// Reliability ranks how gracefully each degrades.
type Reliability struct {
	// Completed reports whether the workflow finished despite the faults;
	// CompletedFraction is the fraction of tasks that did.
	Completed         bool
	CompletedFraction float64
	// FailReason describes why an uncompleted run gave up.
	FailReason string
	// Fault and recovery counts of the replay.
	VMCrashes    int
	TaskFailures int
	Retries      int
	Resubmits    int
	// Market counters (zero without market lease terms): spot leases the
	// provider reclaimed — counted apart from VMCrashes — the on-demand
	// fallback leases opened for them, the price premium those fallbacks
	// billed over the lost spot terms, and the paid-but-unused keepalive
	// time of warm-pool leases.
	SpotPreemptions int
	FallbackVMs     int
	FallbackPremium float64
	WarmIdleSeconds float64
	// WastedBTUSeconds is the paid-but-unproductive VM time the faults
	// caused. For completed runs it is the premium over the fault-free
	// plan: (idle + burned execution) minus the idle the plan already
	// paid. For failed runs every paid second bought nothing, so it is
	// the whole bill in seconds.
	WastedBTUSeconds float64
	// AddedMakespan and AddedCost are the recovery premiums over the
	// fault-free plan (negative for aborted runs that stopped early).
	AddedMakespan float64
	AddedCost     float64
}

// ReliabilityOf derives the reliability point of one faulty replay,
// anchored at the fault-free plan the replay executed, billed once.
func ReliabilityOf(s *plan.Schedule, res *sim.Result) Reliability {
	n := s.Workflow.Len()
	frac := 1.0
	if n > 0 {
		frac = float64(res.CompletedTasks) / float64(n)
	}
	planned := s.Totals()
	wasted := res.IdleTime + res.WastedSeconds - planned.Idle
	if !res.Completed {
		// Nothing was delivered: the whole paid time (idle + useful-looking
		// execution + burned attempts) is sunk.
		var useful float64
		for i, end := range res.TaskEnd {
			if !math.IsNaN(end) {
				useful += end - res.TaskStart[i]
			}
		}
		wasted = res.IdleTime + res.WastedSeconds + useful
	}
	return Reliability{
		Completed:         res.Completed,
		CompletedFraction: frac,
		FailReason:        res.FailReason,
		VMCrashes:         res.VMCrashes,
		TaskFailures:      res.TaskFailures,
		Retries:           res.Retries,
		Resubmits:         res.Resubmits,
		SpotPreemptions:   res.SpotPreemptions,
		FallbackVMs:       res.FallbackVMs,
		FallbackPremium:   res.FallbackPremium,
		WarmIdleSeconds:   res.WarmIdleSeconds,
		WastedBTUSeconds:  wasted,
		AddedMakespan:     res.Makespan - planned.Makespan,
		AddedCost:         res.RentalCost - planned.Rental,
	}
}

// String renders the reliability point in a compact diagnostic form.
func (r Reliability) String() string {
	status := "completed"
	if !r.Completed {
		status = fmt.Sprintf("failed (%.0f%% done)", 100*r.CompletedFraction)
	}
	market := ""
	if r.SpotPreemptions > 0 || r.FallbackVMs > 0 || r.WarmIdleSeconds > 0 {
		market = fmt.Sprintf(", preempts: %d, fallbacks: %d (+$%.3f), warm-idle: %.0fs",
			r.SpotPreemptions, r.FallbackVMs, r.FallbackPremium, r.WarmIdleSeconds)
	}
	return fmt.Sprintf("reliability{%s, crashes: %d, task-failures: %d, wasted: %.0f BTU-s, +makespan: %.1fs, +cost: $%.3f%s}",
		status, r.VMCrashes, r.TaskFailures, r.WastedBTUSeconds, r.AddedMakespan, r.AddedCost, market)
}
