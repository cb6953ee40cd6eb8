package sched

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
)

// rebuildGainMatrix is the reference for Gain's maintained matrix: the
// whole matrix rebuilt under the current assignment and sorted, as
// Gain.run did once per accepted upgrade before it kept the order
// incrementally.
func rebuildGainMatrix(u *upgradeState) gainMatrix {
	var cells gainMatrix
	for id := 0; id < u.wf.Len(); id++ {
		t := dag.TaskID(id)
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
	}
	// Sort best-first, deterministically: higher gain, then lower task
	// ID, then slower (cheaper) target type.
	slices.SortFunc(cells, func(a, b gainCell) int {
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
	})
	return cells
}

// CheckGainOrder runs Gain's loop on wf one accepted upgrade at a time and
// requires the maintained matrix to equal rebuildGainMatrix before the
// first walk and after every upgrade. It returns the final schedule and
// the number of upgrades.
func CheckGainOrder(wf *dag.Workflow, opts Options) (*plan.Schedule, int, error) {
	u, err := NewBatch(wf, opts).upgradeState(gainBudgetFactor)
	if err != nil {
		return nil, 0, err
	}
	m := newGainMatrix(u)
	for upgrades := 0; ; upgrades++ {
		if want := rebuildGainMatrix(u); !slices.Equal(m, want) {
			i := 0
			for i < min(len(m), len(want)) && m[i] == want[i] {
				i++
			}
			return nil, upgrades, fmt.Errorf("after %d upgrades the matrix has %d cells, a rebuild %d; first difference at %d",
				upgrades, len(m), len(want), i)
		}
		t, ok := m.upgrade(u)
		if !ok {
			s, err := u.schedule()
			return s, upgrades, err
		}
		m.replaceRow(u, t)
	}
}
