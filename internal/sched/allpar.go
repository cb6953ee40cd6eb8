package sched

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/provision"
)

// AllPar is the level-based scheduler the paper proposes as a standalone
// strategy (Sect. III-B): the workflow is split into levels of parallel
// tasks, each level's tasks are ordered by decreasing execution time, and
// the same-named provisioning policy assigns each task its VM.
type AllPar struct {
	Provisioning provision.Kind // AllParNotExceed or AllParExceed
	Type         cloud.InstanceType
}

// NewAllPar returns an AllPar scheduler. It panics unless the policy is one
// of the level-based pair.
func NewAllPar(p provision.Kind, typ cloud.InstanceType) AllPar {
	if p != provision.AllParNotExceed && p != provision.AllParExceed {
		panic(fmt.Sprintf("sched: AllPar cannot use provisioning %v", p))
	}
	return AllPar{Provisioning: p, Type: typ}
}

// Name returns e.g. "AllParExceed-s".
func (a AllPar) Name() string {
	return a.Provisioning.String() + "-" + a.Type.Suffix()
}

// Schedule implements Algorithm.
func (a AllPar) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	opts.fill()
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	pol := provision.New(a.Provisioning)
	b := opts.NewBuilder(wf)
	for _, ordered := range wf.LevelsByWork() {
		pol.BeginGroup()
		for _, t := range ordered {
			b.PlaceOn(t, pol.Pick(b, t, a.Type))
		}
	}
	return b.Done(), nil
}
