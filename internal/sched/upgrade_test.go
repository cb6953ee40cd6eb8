package sched

import (
	"testing"

	"repro/internal/workflows"
	"repro/internal/workload"
)

// TestUpgradeStateReturnsLoadError corrupts the baseline assignment — one
// task queued on two VMs, another on none — and requires the upgrade
// loops to report the replayer's load error instead of pricing every
// trial as rejected and returning the baseline.
func TestUpgradeStateReturnsLoadError(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	b := NewBatch(wf, DefaultOptions())
	if err := b.init(); err != nil {
		t.Fatal(err)
	}
	b.baseAssign.Queues[1][0] = b.baseAssign.Queues[0][0]
	if _, err := b.upgradeState(gainBudgetFactor); err == nil {
		t.Error("upgradeState loaded a corrupt assignment")
	}
	for _, alg := range []Algorithm{NewGain(), NewCPAEager()} {
		if s, err := b.Schedule(alg); err == nil {
			t.Errorf("%s on a corrupt batch assignment: no error, schedule %v", alg.Name(), s)
		}
	}
}
