package sched

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// TestUpgradeStateReturnsLoadError corrupts the baseline assignment — one
// task queued on two VMs, another on none — and requires the upgrade
// loops to report the replayer's load error instead of pricing every
// trial as rejected and returning the baseline.
func TestUpgradeStateReturnsLoadError(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	opts := DefaultOptions()
	base, err := Baseline().Schedule(wf, opts)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plan.NewReplayer(wf, opts.Platform, opts.Region, opts.Market)
	if err != nil {
		t.Fatal(err)
	}
	et, lc := upgradeTables(wf, opts)
	a := plan.AssignmentOf(base)
	a.Queues[1][0] = a.Queues[0][0]
	if _, err := initUpgradeState(wf, opts, base, a, rp, et, lc, gainBudgetFactor); err == nil {
		t.Error("initUpgradeState loaded a corrupt assignment")
	}

	b := NewBatch(wf, opts)
	if err := b.init(); err != nil {
		t.Fatal(err)
	}
	b.baseAssign.Queues[1][0] = b.baseAssign.Queues[0][0]
	for _, alg := range []Algorithm{NewGain(), NewCPAEager()} {
		if s, err := b.Schedule(alg); err == nil {
			t.Errorf("%s on a corrupt batch assignment: no error, schedule %v", alg.Name(), s)
		}
	}
}
