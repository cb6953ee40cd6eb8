package sched

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/provision"
)

// HEFT is the Heterogeneous Earliest Finish Time list scheduler restricted,
// as in the paper, to a homogeneous VM pool of one instance type, and
// combined with one of the rank-compatible provisioning policies
// (OneVMperTask, StartParNotExceed, StartParExceed — Table I).
//
// Tasks are ordered by decreasing upward rank; each is then handed to the
// provisioning policy, which picks (or rents) the VM it runs on. Placement
// appends to the VM's queue — the paper's simulator bills whole BTUs per
// lease, which makes classic gap-insertion irrelevant for cost and rarely
// useful for makespan under these policies.
type HEFT struct {
	Provisioning provision.Kind
	Type         cloud.InstanceType
}

// NewHEFT returns a HEFT instance with the given provisioning policy and
// instance type. It panics when the policy is level-based (AllPar*), which
// HEFT's rank ordering cannot drive (Table I pairs them only with level
// ranking).
func NewHEFT(p provision.Kind, typ cloud.InstanceType) HEFT {
	switch p {
	case provision.OneVMperTask, provision.StartParNotExceed, provision.StartParExceed:
		return HEFT{Provisioning: p, Type: typ}
	}
	panic(fmt.Sprintf("sched: HEFT cannot use level-based provisioning %v", p))
}

// Name returns e.g. "StartParExceed-m": the paper labels the homogeneous
// strategies by provisioning policy and instance-type suffix.
func (h HEFT) Name() string {
	return h.Provisioning.String() + "-" + h.Type.Suffix()
}

// Schedule implements Algorithm.
func (h HEFT) Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error) {
	opts.fill()
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	order := wf.RankOrder(costModel(opts.Platform, h.Type))
	pol := provision.New(h.Provisioning)
	b := opts.NewBuilder(wf)
	for _, t := range order {
		b.PlaceOn(t, pol.Pick(b, t, h.Type))
	}
	return b.Done(), nil
}
