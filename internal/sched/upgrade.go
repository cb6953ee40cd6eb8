package sched

import (
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
)

// upgradeState is the shared machinery of the budget-constrained upgrade
// algorithms (CPA-Eager and Gain): both start from the baseline HEFT +
// OneVMperTask schedule on small instances — one VM per task — and
// re-type individual VMs. The state loads the baseline assignment into a
// plan.Replayer once; CPA-Eager and Gain then price each trial retype
// incrementally (Replayer.Retype) and keep or undo it. Accepted changes
// only mutate the assignment; the full timed schedule is materialized
// once, at the end, from the final assignment — which is exactly the
// schedule the last kept trial priced, since rejected trials are undone.
type upgradeState struct {
	wf     *dag.Workflow
	opts   Options
	assign plan.Assignment
	taskVM []int // VM index per task (one VM per task)
	base   *plan.Schedule
	rp     *plan.Replayer
	// et and lc are the upgrade loops' gain tables: execution time and
	// single-task lease cost per (task, instance type). Both are pure
	// functions of (workflow, platform, region), so they are computed once
	// and shared read-only across all strategies of a Batch.
	et, lc [][]float64
	dirty  bool // the assignment differs from the baseline
	budget float64
}

// upgradeTables builds the (task × instance type) execution-time and
// lease-cost tables the upgrade loops consult. Entry [t][typ] is exactly
// what the uncached Platform.ExecTime / cloud.LeaseCost calls return, so
// table lookups are bit-identical to recomputation.
func upgradeTables(wf *dag.Workflow, opts Options) (et, lc [][]float64) {
	n := wf.Len()
	types := int(cloud.XLarge) + 1
	etFlat := make([]float64, n*types)
	lcFlat := make([]float64, n*types)
	et = make([][]float64, n)
	lc = make([][]float64, n)
	for id := 0; id < n; id++ {
		et[id] = etFlat[id*types : (id+1)*types]
		lc[id] = lcFlat[id*types : (id+1)*types]
		work := wf.Task(dag.TaskID(id)).Work
		for typ := cloud.InstanceType(0); typ <= cloud.XLarge; typ++ {
			e := opts.Platform.ExecTime(work, typ)
			et[id][typ] = e
			lc[id][typ] = cloud.LeaseCost(e, typ, opts.Region)
		}
	}
	return et, lc
}

// typeOf returns the instance type currently assigned to a task's VM.
func (u *upgradeState) typeOf(t dag.TaskID) cloud.InstanceType {
	return u.assign.Types[u.taskVM[t]]
}

// execTime returns a task's execution time under its current VM type.
func (u *upgradeState) execTime(t dag.TaskID) float64 {
	return u.et[t][u.typeOf(t)]
}

// leaseCost returns the rent of a task's dedicated VM under a hypothetical
// type: one lease spanning exactly the execution time.
func (u *upgradeState) leaseCost(t dag.TaskID, typ cloud.InstanceType) float64 {
	return u.lc[t][typ]
}

// tryUpgrade re-types task t's VM and keeps the change if the schedule's
// total cost stays within budget; otherwise it undoes it. It reports
// whether the change was kept. The trial is priced by Replayer.Retype,
// bit-identical to materializing the schedule and reading TotalCost, so
// the accept/reject sequence matches the materializing implementation
// exactly.
func (u *upgradeState) tryUpgrade(t dag.TaskID, typ cloud.InstanceType) bool {
	vm := u.taskVM[t]
	if typ == u.assign.Types[vm] {
		return false
	}
	if u.rp.Retype(vm, typ) > u.budget+1e-9 {
		u.rp.Undo()
		return false
	}
	u.rp.Keep()
	u.assign.Types[vm] = typ
	u.dirty = true
	return true
}

// schedule materializes the final timed schedule: the untouched baseline
// when no upgrade was accepted, otherwise one full replay of the final
// assignment.
func (u *upgradeState) schedule() (*plan.Schedule, error) {
	if !u.dirty {
		return u.base, nil
	}
	return u.rp.Replay(u.assign)
}

// criticalPath returns the tasks of the heaviest entry→exit path under the
// current per-task types (execution plus cross-VM transfer estimates).
func (u *upgradeState) criticalPath() []dag.TaskID {
	m := dag.CostModel{
		Exec: func(t dag.Task) float64 { return u.execTime(t.ID) },
		Comm: func(e dag.Edge) float64 {
			// One VM per task: producer and consumer are always on
			// distinct VMs, so every edge pays a transfer.
			return u.opts.Platform.TransferTime(e.Data, u.typeOf(e.From), u.typeOf(e.To))
		},
	}
	path, _ := u.wf.CriticalPath(m)
	return path
}
