package sched

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/provision"
)

// AllPar1LnS ("all parallel, 1 long n short") reduces the task parallelism
// of each level by sequentializing multiple short tasks whose total length
// is about the same as the level's longest task (Sect. III-B). Each such
// sequence shares one VM; the long tasks keep their own VMs. Tasks are
// packed after being ranked inside the level by execution time, and VMs are
// provisioned with the AllParNotExceed policy, all on small instances (the
// heterogeneous strategies of Figs. 4-5 carry no instance suffix; small is
// their base type, which Table III's worst case confirms by collapsing them
// onto the *-s strategies).
type AllPar1LnS struct{}

// NewAllPar1LnS returns the parallelism-reducing level scheduler.
func NewAllPar1LnS() AllPar1LnS { return AllPar1LnS{} }

// Name implements Algorithm.
func (AllPar1LnS) Name() string { return "AllPar1LnS" }

// baseType is the instance type the parallelism-reducing strategies start
// from.
const baseType = cloud.Small

// packBins packs one level's tasks into sequential bins. The level comes
// ordered by decreasing work, ties by ID (the dag.LevelsByWork order);
// each task is appended to the first bin whose total stays within the
// longest task's execution time, and a task that fits nowhere opens a new
// bin. Bin 0 therefore holds exactly the longest task (nothing else fits
// behind it) and every bin's sequential length is at most the level
// makespan the fully parallel policy would achieve.
func packBins(wf *dag.Workflow, ordered []dag.TaskID) [][]dag.TaskID {
	if len(ordered) == 0 {
		return nil
	}
	capacity := wf.Task(ordered[0]).Work
	var bins [][]dag.TaskID
	var fill []float64
	for _, t := range ordered {
		w := wf.Task(t).Work
		placed := false
		for i := range bins {
			if fill[i]+w <= capacity+1e-9 {
				bins[i] = append(bins[i], t)
				fill[i] += w
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []dag.TaskID{t})
			fill = append(fill, w)
		}
	}
	return bins
}

// Schedule implements Algorithm.
func (AllPar1LnS) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	opts.fill()
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	pol := provision.New(provision.AllParNotExceed)
	b := opts.NewBuilder(wf)
	for _, ordered := range wf.LevelsByWork() {
		pol.BeginGroup()
		for _, bin := range packBins(wf, ordered) {
			vm := pol.Pick(b, bin[0], baseType)
			for _, t := range bin {
				b.PlaceOn(t, vm)
			}
		}
	}
	return b.Done(), nil
}
