package sched

import (
	"repro/internal/dag"
	"repro/internal/plan"
)

// CPAEager is the paper's CPA-Eager algorithm (Sect. III-B): starting from
// the baseline HEFT + OneVMperTask schedule on small instances, it
// systematically increases the speed of the VMs hosting critical-path
// tasks — one instance-type step at a time, recomputing the critical path
// after each sweep — as long as total cost stays within twice the baseline
// cost.
type CPAEager struct{}

// NewCPAEager returns the CPA-Eager scheduler.
func NewCPAEager() CPAEager { return CPAEager{} }

// Name implements Algorithm; the paper's figures label it "CPA-Eager".
func (CPAEager) Name() string { return "CPA-Eager" }

// cpaBudgetFactor is the paper's budget for CPA-Eager: twice the baseline
// HEFT + OneVMperTask-small cost.
const cpaBudgetFactor = 2.0

// Schedule implements Algorithm: the loop over a batch of one.
func (c CPAEager) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	return c.scheduleBatch(NewBatch(wf, opts))
}

// scheduleBatch implements batchScheduler: the critical-path upgrade loop
// over the batch's shared baseline and replay scratch.
func (CPAEager) scheduleBatch(b *Batch) (*plan.Schedule, error) {
	u, err := b.upgradeState(cpaBudgetFactor)
	if err != nil {
		return nil, err
	}
	for {
		improved := false
		for _, t := range u.criticalPath() {
			faster, ok := u.typeOf(t).Faster()
			if !ok {
				continue
			}
			if u.tryUpgrade(t, faster) {
				improved = true
			}
		}
		if !improved {
			return u.schedule()
		}
	}
}
