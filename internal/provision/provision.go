// Package provision implements the paper's five VM provisioning policies
// (Sect. III-A): the rules deciding, for each ready task, whether to reuse
// an existing VM or rent a new one, and whether a reuse may stretch a VM's
// lease past its already-paid BTU boundary.
//
//   - OneVMperTask       — a fresh VM for every task.
//   - StartParNotExceed  — fresh VMs for entry tasks only; everything else
//     queues on the busiest VM unless that would exceed its paid BTU.
//   - StartParExceed     — like the previous, but BTU overruns never
//     trigger a new rental.
//   - AllParNotExceed    — every parallel task of a level gets its own VM,
//     reusing VMs that are idle at the task's ready time when the paid BTU
//     allows it.
//   - AllParExceed       — like the previous, without the BTU restriction.
//
// Policies are stateful per schedule construction (the AllPar* pair tracks
// which VMs the current level already claimed), so callers obtain a fresh
// instance from New for every run.
package provision

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
)

// Kind enumerates the five provisioning policies.
type Kind int

// The five policies of Sect. III-A.
const (
	OneVMperTask Kind = iota
	StartParNotExceed
	StartParExceed
	AllParNotExceed
	AllParExceed
)

// Kinds lists all policies in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{OneVMperTask, StartParNotExceed, StartParExceed, AllParNotExceed, AllParExceed}
}

// String returns the paper's name for the policy.
func (k Kind) String() string {
	switch k {
	case OneVMperTask:
		return "OneVMperTask"
	case StartParNotExceed:
		return "StartParNotExceed"
	case StartParExceed:
		return "StartParExceed"
	case AllParNotExceed:
		return "AllParNotExceed"
	case AllParExceed:
		return "AllParExceed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a policy by its paper name.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("provision: unknown policy %q", s)
}

// Policy decides which VM hosts each task during schedule construction. A
// Policy instance carries per-run state and must not be shared between
// concurrent schedule constructions.
type Policy struct {
	kind Kind
	// claimed marks VMs already used by the current parallel group, so the
	// AllPar* policies give every parallel task its own VM.
	claimed map[plan.VMID]bool

	// BusiestVM filter scratch: the two closures below are built once in
	// New and read the current task through these fields, so the Pick hot
	// path hands the builder a pre-bound filter instead of allocating a
	// fresh closure per task.
	fb       *plan.Builder
	ft       dag.TaskID
	ftyp     cloud.InstanceType
	sameType func(*plan.VM) bool
	allParOK func(*plan.VM) bool
}

// New returns a fresh policy instance of the given kind.
func New(kind Kind) *Policy {
	p := &Policy{kind: kind, claimed: map[plan.VMID]bool{}}
	p.sameType = func(vm *plan.VM) bool { return vm.Type == p.ftyp }
	p.allParOK = func(vm *plan.VM) bool {
		if vm.Type != p.ftyp || p.claimed[vm.ID] {
			return false
		}
		// The VM must be free when the task's inputs are available, so
		// reuse never serializes tasks that the level runs in parallel.
		if vm.Avail() > p.fb.ReadyOn(p.ft, vm)+1e-9 {
			return false
		}
		if p.kind == AllParNotExceed && !p.fb.FitsBTU(p.ft, vm) {
			return false
		}
		return true
	}
	return p
}

// BeginGroup starts a new parallel group (a workflow level). The AllPar*
// policies release their per-level VM claims; the other policies ignore it.
func (p *Policy) BeginGroup() {
	if len(p.claimed) > 0 {
		clear(p.claimed)
	}
}

// Pick returns the VM task t must run on, renting a new VM of type typ when
// the policy calls for one. All predecessors of t must already be placed.
func (p *Policy) Pick(b *plan.Builder, t dag.TaskID, typ cloud.InstanceType) *plan.VM {
	switch p.kind {
	case OneVMperTask:
		return b.NewVM(typ)
	case StartParNotExceed, StartParExceed:
		return p.pickStartPar(b, t, typ)
	case AllParNotExceed, AllParExceed:
		return p.pickAllPar(b, t, typ)
	}
	panic(fmt.Sprintf("provision: invalid kind %d", p.kind))
}

// pickStartPar implements the StartPar* pair: entry tasks each open a VM;
// later tasks queue sequentially on the VM with the largest accumulated
// execution time, unless (NotExceed only) that would stretch the lease past
// the paid BTU boundary.
func (p *Policy) pickStartPar(b *plan.Builder, t dag.TaskID, typ cloud.InstanceType) *plan.VM {
	if len(b.Workflow().Pred(t)) == 0 {
		return b.NewVM(typ)
	}
	p.ftyp = typ
	vm := b.BusiestVM(p.sameType)
	if vm == nil {
		return b.NewVM(typ)
	}
	if p.kind == StartParNotExceed && !b.FitsBTU(t, vm) {
		return b.NewVM(typ)
	}
	return vm
}

// pickAllPar implements the AllPar* pair: within the current parallel
// group each task takes a distinct VM, preferring (a) the VM of its largest
// predecessor, then (b) the busiest VM that is free by the task's ready
// time, and renting a new VM when neither exists. NotExceed additionally
// requires the reuse to fit inside the VM's paid BTU.
func (p *Policy) pickAllPar(b *plan.Builder, t dag.TaskID, typ cloud.InstanceType) *plan.VM {
	p.fb, p.ft, p.ftyp = b, t, typ
	var vm *plan.VM
	if pred := p.largestPred(b, t); pred != nil && p.allParOK(pred) {
		vm = pred
	} else {
		vm = b.BusiestVM(p.allParOK)
	}
	if vm == nil {
		vm = b.NewVM(typ)
	}
	p.claimed[vm.ID] = true
	return vm
}

// Replace rents the replacement for a VM that failed at execution time:
// a fresh lease of the same instance type in the same region, billed from
// scratch (a recovered VM pays a new BTU, and the simulator additionally
// charges the replacement boot lag). This is the provisioning rule the
// recovery policies of internal/fault re-provision through; dead prepaid
// (private-cloud) capacity is replaced by equally prepaid capacity. A
// market lease is replaced on the same terms minus the warm/cold-start
// state (market.Lease.Replacement): the replacement boots under the
// fault model's reboot lag, not a fresh cold-start draw.
func Replace(dead *plan.VM, id plan.VMID) *plan.VM {
	return &plan.VM{ID: id, Type: dead.Type, Region: dead.Region,
		Prepaid: dead.Prepaid, Lease: dead.Lease.Replacement()}
}

// Fallback rents the on-demand replacement for a preempted spot VM — the
// SpotFallback hedge: same instance type, same region, same billing
// granularity, but purchased on the on-demand market so the provider
// cannot reclaim it again (market.Lease.OnDemandFallback).
func Fallback(dead *plan.VM, id plan.VMID) *plan.VM {
	return &plan.VM{ID: id, Type: dead.Type, Region: dead.Region,
		Prepaid: dead.Prepaid, Lease: dead.Lease.OnDemandFallback()}
}

// largestPred returns the VM hosting t's predecessor with the largest
// reference work, or nil for entry tasks.
func (p *Policy) largestPred(b *plan.Builder, t dag.TaskID) *plan.VM {
	wf := b.Workflow()
	var best dag.TaskID = -1
	for _, pr := range wf.Pred(t) {
		if best < 0 || wf.Task(pr).Work > wf.Task(best).Work {
			best = pr
		}
	}
	if best < 0 {
		return nil
	}
	return b.VMOf(best)
}
