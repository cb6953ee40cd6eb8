package sched

import (
	"math"
	"slices"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
)

// Gain is the budget-constrained workflow scheduler of Sakellariou et al.
// as used in the paper (Sect. III-B): starting from the baseline HEFT +
// OneVMperTask schedule on small instances, it ranks every (task, faster
// VM type) pair of a gain matrix by
//
//	gain = (execTime_current − execTime_new) / (cost_new − cost_current),
//
// upgrades the pair with the greatest gain that fits the budget of four
// times the baseline cost, and stops when no upgrade fits. A pair's gain
// depends only on its task's current type, so after an upgrade only that
// task's row of the matrix changes.
type Gain struct{}

// NewGain returns the Gain scheduler.
func NewGain() Gain { return Gain{} }

// Name implements Algorithm; the paper's figures label it "GAIN".
func (Gain) Name() string { return "GAIN" }

// gainBudgetFactor is the paper's budget for Gain: four times the baseline
// HEFT + OneVMperTask-small cost.
const gainBudgetFactor = 4.0

// Schedule implements Algorithm: the loop over a batch of one.
func (g Gain) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	return g.scheduleBatch(NewBatch(wf, opts))
}

// gainCell is one (task, faster type) candidate of the gain matrix.
type gainCell struct {
	task dag.TaskID
	typ  cloud.InstanceType
	gain float64
}

// compareGain is the gain matrix's walk order, best first: higher gain,
// then lower task ID, then slower (cheaper) target type. (task, typ)
// pairs are unique, so the order is total and any sort of the matrix is
// deterministic.
func compareGain(a, b gainCell) int {
	if a.gain != b.gain {
		if a.gain > b.gain {
			return -1
		}
		return 1
	}
	if a.task != b.task {
		return int(a.task) - int(b.task)
	}
	return int(a.typ) - int(b.typ)
}

// appendGainRow appends task t's cells under its current type: one per
// faster type that saves time or money.
func appendGainRow(cells []gainCell, u *upgradeState, t dag.TaskID) []gainCell {
	cur := u.typeOf(t)
	curCost := u.leaseCost(t, cur)
	for typ := cur + 1; typ <= cloud.XLarge; typ++ {
		dt := u.execTime(t) - u.et[t][typ]
		dc := u.leaseCost(t, typ) - curCost
		g := math.Inf(1)
		if dc > 0 {
			g = dt / dc
		} else if dt <= 0 {
			continue // no time saved and no cost saved: useless
		}
		cells = append(cells, gainCell{task: t, typ: typ, gain: g})
	}
	return cells
}

// gainMatrix is the gain matrix in walk order. It is sorted once; an
// accepted upgrade replaces only its task's row, so the order always
// equals a full rebuild and sort under the current assignment.
type gainMatrix []gainCell

// newGainMatrix builds and sorts the matrix under the current assignment.
// A task has at most int(cloud.XLarge) faster types, which bounds every
// row and so the matrix's capacity.
func newGainMatrix(u *upgradeState) gainMatrix {
	n := u.wf.Len()
	m := make(gainMatrix, 0, n*int(cloud.XLarge))
	for id := 0; id < n; id++ {
		m = appendGainRow(m, u, dag.TaskID(id))
	}
	slices.SortFunc(m, compareGain)
	return m
}

// upgrade walks the matrix best-first and applies the first upgrade that
// fits the budget, returning its task; ok is false when none fits.
func (m gainMatrix) upgrade(u *upgradeState) (t dag.TaskID, ok bool) {
	for _, c := range m {
		if u.tryUpgrade(c.task, c.typ) {
			return c.task, true
		}
	}
	return 0, false
}

// replaceRow swaps task t's cells for its row under its current type:
// the old cells are deleted in one pass, and each new one is inserted at
// its binary-searched position.
func (m *gainMatrix) replaceRow(u *upgradeState, t dag.TaskID) {
	*m = slices.DeleteFunc(*m, func(c gainCell) bool { return c.task == t })
	var row [cloud.XLarge]gainCell
	for _, c := range appendGainRow(row[:0], u, t) {
		i, _ := slices.BinarySearchFunc(*m, c, compareGain)
		*m = slices.Insert(*m, i, c)
	}
}

// scheduleBatch implements batchScheduler: the gain-matrix upgrade loop
// over the batch's shared baseline and replay scratch.
func (Gain) scheduleBatch(b *Batch) (*plan.Schedule, error) {
	u, err := b.upgradeState(gainBudgetFactor)
	if err != nil {
		return nil, err
	}
	m := newGainMatrix(u)
	for {
		t, ok := m.upgrade(u)
		if !ok {
			return u.schedule()
		}
		m.replaceRow(u, t)
	}
}
