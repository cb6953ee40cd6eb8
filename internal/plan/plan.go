// Package plan defines the schedule representation shared by every
// scheduling algorithm, provisioning policy and analysis tool in this
// repository: which VM each task runs on, when, and what the resulting
// lease periods cost.
//
// A Schedule is produced by a Builder (used by the planners in
// internal/sched and internal/provision) and is then consumed by the
// metrics, validation, simulation and reporting packages.
package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/market"
)

// VMID identifies a VM within one schedule, densely numbered from 0 in
// rental order.
type VMID int

// Slot is one task occupying a VM for [Start, End).
type Slot struct {
	Task       dag.TaskID
	Start, End float64
}

// VM is one rented virtual machine and its timeline of task slots, ordered
// by start time. The lease begins at the first slot's start (the paper
// ignores boot time: static scheduling allows pre-booting) and ends at the
// last slot's end, rounded up to whole BTUs for billing.
//
// A Prepaid VM models the private half of a hybrid cloud (the setting of
// HCOC in the paper's related work): capacity the user already owns. It
// bills nothing, counts no idle, and has no BTU boundary.
type VM struct {
	ID      VMID
	Type    cloud.InstanceType
	Region  cloud.Region
	Prepaid bool
	Slots   []Slot
	// Held extends the lease to at least Held seconds from LeaseStart,
	// even with zero task slots — a reservation kept (and billed) without
	// running anything, as produced by speculative provisioning or a
	// crash that empties a lease. The zero value changes nothing: a VM
	// with slots and Held = 0 behaves exactly as before.
	Held float64
	// Lease carries the market terms the VM was rented under: purchasing
	// market, billing granularity, cold-start delay, warm/fallback flags
	// (see internal/market). Nil — the only value non-market code paths
	// ever produce — is the paper's economics: on-demand, per-BTU,
	// pre-booted; every billing method below treats nil exactly as the
	// legacy model, so schedules without a market are bit-identical to
	// before the market layer existed.
	Lease *market.Lease

	// slot0 is inline backing for the first Slots entries. Most catalog
	// policies place one or two tasks per VM, so seeding Slots from this
	// array (NewVMIn) makes the common case append-allocation-free. Only
	// the owning VM's Slots may alias it — VMs are handled by pointer
	// everywhere, never copied by value.
	slot0 [2]Slot
}

// Busy returns the summed duration of all slots.
func (vm *VM) Busy() float64 {
	var b float64
	for _, s := range vm.Slots {
		b += s.End - s.Start
	}
	return b
}

// LeaseStart returns the start of the lease. For legacy leases it is the
// first slot's start (the paper ignores boot time), or 0 for an empty VM.
// Market leases with a cold-start delay anchor earlier: the VM is
// requested (and billed) ColdStart seconds before its first task can run.
// Warm-pool leases anchor at absolute time 0 — that is what keeping a VM
// warm means.
func (vm *VM) LeaseStart() float64 {
	if vm.Lease.IsWarm() {
		return 0
	}
	if len(vm.Slots) == 0 {
		return 0
	}
	if d := vm.Lease.ColdStartDelay(); d > 0 {
		return vm.Slots[0].Start - d
	}
	return vm.Slots[0].Start
}

// LeaseEnd returns the end of the lease: the last slot's end, extended to
// LeaseStart + Held when the lease is held longer. It is 0 for a VM with
// neither slots nor a hold.
func (vm *VM) LeaseEnd() float64 {
	end := vm.LeaseStart() + vm.Held
	if len(vm.Slots) > 0 {
		if slotEnd := vm.Slots[len(vm.Slots)-1].End; slotEnd > end {
			end = slotEnd
		}
	}
	return end
}

// Span returns the wall-clock length of the lease.
func (vm *VM) Span() float64 { return vm.LeaseEnd() - vm.LeaseStart() }

// leased reports whether the VM was ever actually held: it ran a task or
// was reserved for a nonzero duration.
func (vm *VM) leased() bool { return len(vm.Slots) > 0 || vm.Held > 0 }

// Bill is one VM's lease, billed once: the quantities the paper's cost
// and idle figures read, all from one eps-guarded rounding of the span.
type Bill struct {
	// Start and End delimit the lease: LeaseStart and LeaseEnd.
	Start, End float64
	// Busy is the summed duration of the VM's slots.
	Busy float64
	// Paid is the billed lease length, the span rounded up to whole
	// billing units of the lease's granularity (whole BTUs for legacy
	// leases); Cost is its rental price in USD; Idle is the paid-but-unused
	// time, Paid − Busy — the quantity of the paper's Fig. 5. An unleased
	// or prepaid VM bills nothing: all three are zero. A held-but-idle lease
	// bills like any other (the minimum one unit).
	Paid, Cost, Idle float64
}

// Bill bills the lease once. Market leases bill under their own
// granularity and the spot price in effect per interval
// (market.Lease.Bill); legacy leases bill the paper's whole-BTU model.
func (vm *VM) Bill() Bill {
	b := Bill{Start: vm.LeaseStart(), Busy: vm.Busy()}
	// LeaseEnd, from the start already at hand.
	b.End = b.Start + vm.Held
	if n := len(vm.Slots); n > 0 && vm.Slots[n-1].End > b.End {
		b.End = vm.Slots[n-1].End
	}
	if !vm.leased() || vm.Prepaid {
		return b
	}
	b.Paid, b.Cost = vm.Lease.Bill(b.Start, b.End-b.Start, vm.Type, vm.Region)
	b.Idle = b.Paid - b.Busy
	return b
}

// PaidBoundary returns the absolute time up to which the current lease is
// already paid: LeaseStart + Bill().Paid (whole billing units of the
// lease's granularity), without pricing the lease. For an unleased or
// prepaid VM it returns +Inf (the first task may start anywhere; prepaid
// capacity has no billing boundary). The *NotExceed provisioning policies
// refuse reuses that would push a task past this boundary.
func (vm *VM) PaidBoundary() float64 {
	if !vm.leased() || vm.Prepaid {
		return math.Inf(1)
	}
	start := vm.LeaseStart()
	return start + vm.Lease.PaidSeconds(vm.LeaseEnd()-start)
}

// Avail returns the earliest time a new task may start on this VM: the end
// of its last slot, or 0 for an empty VM (the builder clamps actual starts
// to the task's ready time).
func (vm *VM) Avail() float64 { return vm.LeaseEnd() }

// Schedule is a complete mapping of a workflow onto rented VMs.
type Schedule struct {
	Workflow *dag.Workflow
	Platform *cloud.Platform
	VMs      []*VM

	// Placement, Start and End are indexed by TaskID.
	Placement []VMID
	Start     []float64
	End       []float64
}

// Makespan returns the completion time of the last task. Task starts are
// anchored at time 0 (the earliest entry task).
func (s *Schedule) Makespan() float64 {
	var m float64
	for _, e := range s.End {
		if e > m {
			m = e
		}
	}
	return m
}

// TransferCost returns the total inter-region data transfer price in USD.
// It is zero for the paper's single-region experiments.
func (s *Schedule) TransferCost() float64 {
	return transferCost(s.Workflow, s.Platform, s.VMs, s.Placement)
}

// transferCost sums the transfer price of every cross-VM edge in the
// workflow's sorted edge order.
func transferCost(wf *dag.Workflow, p *cloud.Platform, vms []*VM, vmOf []VMID) float64 {
	var c float64
	for _, e := range wf.Edges() {
		from, to := vms[vmOf[e.From]], vms[vmOf[e.To]]
		if from.ID != to.ID {
			c += p.TransferCost(e.Data, from.Region, to.Region)
		}
	}
	return c
}

// Totals is a schedule's outcome in the paper's quantities, with every VM
// billed once.
type Totals struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// Rental is the summed VM rental price in USD; Transfer is the
	// inter-region data transfer price, zero for the paper's single-region
	// experiments.
	Rental, Transfer float64
	// Idle is the summed paid-but-unused VM time in seconds (Fig. 5).
	Idle float64
	// VMs counts the VMs that actually ran at least one task.
	VMs int
}

// Cost returns rental plus transfer cost.
func (t Totals) Cost() float64 { return t.Rental + t.Transfer }

// Totals bills the schedule: one pass over its VMs in VM order, one Bill
// each.
func (s *Schedule) Totals() Totals {
	t := Totals{Makespan: s.Makespan(), Transfer: s.TransferCost()}
	for _, vm := range s.VMs {
		b := vm.Bill()
		t.Rental += b.Cost
		t.Idle += b.Idle
		if len(vm.Slots) > 0 {
			t.VMs++
		}
	}
	return t
}

// RentalCost returns Totals().Rental.
func (s *Schedule) RentalCost() float64 { return s.Totals().Rental }

// TotalCost returns Totals().Cost(): rental plus transfer cost.
func (s *Schedule) TotalCost() float64 { return s.Totals().Cost() }

// IdleTime returns Totals().Idle.
func (s *Schedule) IdleTime() float64 { return s.Totals().Idle }

// VMCount returns Totals().VMs.
func (s *Schedule) VMCount() int { return s.Totals().VMs }

// TaskVM returns the VM hosting a task.
func (s *Schedule) TaskVM(t dag.TaskID) *VM { return s.VMs[s.Placement[t]] }

// String summarizes the schedule.
func (s *Schedule) String() string {
	t := s.Totals()
	return fmt.Sprintf("schedule{vms: %d, makespan: %.1fs, cost: $%.3f, idle: %.1fs}",
		t.VMs, t.Makespan, t.Cost(), t.Idle)
}

// Builder incrementally constructs a Schedule. Planners create VMs, query
// ready/availability times and place tasks; the builder maintains the
// timing bookkeeping. Placement order must respect precedence: placing a
// task before one of its predecessors panics.
type Builder struct {
	wf     *dag.Workflow
	p      *cloud.Platform
	region cloud.Region

	vms    []*VM
	placed []bool
	start  []float64
	end    []float64
	vmOf   []VMID

	// arena backs the first len(arena) VMs in one allocation. NewVMIn
	// hands out pointers into it, so only reset, which drops every VM,
	// may resize it; VMs beyond the arena fall back to individual
	// allocations.
	arena     []VM
	arenaUsed int

	// market, when non-nil, stamps every rented VM with lease terms
	// (market.Model.Terms); warmLeft counts the warm-pool slots not yet
	// handed out. Nil market — the default — leaves every VM.Lease nil,
	// the legacy economics. A builder with keepTerms set (a Replayer's)
	// keeps every lease it draws in leases, by VM index and warmth, for
	// its placements after a reset.
	market    *market.Model
	warmLeft  int
	keepTerms bool
	leases    []*market.Lease
}

// NewBuilder returns a Builder for one workflow on one platform, renting
// all VMs in a single region (the paper's CPU-intensive setting).
func NewBuilder(wf *dag.Workflow, p *cloud.Platform, region cloud.Region) *Builder {
	if err := wf.Freeze(); err != nil {
		panic(fmt.Sprintf("plan: invalid workflow: %v", err))
	}
	b := &Builder{wf: wf, p: p, region: region}
	// One VM per task is the most any catalog planner rents.
	b.reset(wf.Len())
	return b
}

// reset readies the builder for a fresh placement of its workflow under
// its market, with an arena of nvms VMs, reusing every buffer whose
// capacity suffices: NewBuilder starts from none, and a Replayer resets
// its builder before every placement.
func (b *Builder) reset(nvms int) {
	n := b.wf.Len()
	b.vms = resize(b.vms, nvms)[:0]
	b.placed = resize(b.placed, n)
	clear(b.placed)
	b.start = resize(b.start, n)
	b.end = resize(b.end, n)
	b.vmOf = resize(b.vmOf, n)
	for i := range b.vmOf {
		b.vmOf[i] = -1
	}
	b.arena = resize(b.arena, nvms)
	b.arenaUsed = 0
	b.warmLeft = 0
	if b.market != nil {
		b.warmLeft = b.market.WarmPool
	}
}

// resize returns s with length n, on a new array when s's capacity is
// short; reused elements keep their values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SetMarket installs the market model whose terms every subsequently
// rented VM is stamped with. It must be called before any VM is created
// (lease terms shape start times, so retrofitting them would corrupt the
// timeline); a nil model is a no-op, keeping the legacy economics.
func (b *Builder) SetMarket(m *market.Model) {
	if m == nil {
		return
	}
	if len(b.vms) > 0 {
		panic("plan: SetMarket after VMs were created")
	}
	b.market = m
	b.warmLeft = m.WarmPool
}

// Workflow returns the workflow being scheduled.
func (b *Builder) Workflow() *dag.Workflow { return b.wf }

// NewVM rents a fresh VM of the given type in the builder's home region
// and returns it.
func (b *Builder) NewVM(t cloud.InstanceType) *VM {
	return b.NewVMIn(t, b.region)
}

// NewVMIn rents a fresh VM in an explicit region — the federation case the
// paper's transfer pricing (Table II's last column) exists for. Schedules
// that spread VMs across regions pay inter-region transfer costs on every
// cross-region edge.
func (b *Builder) NewVMIn(t cloud.InstanceType, region cloud.Region) *VM {
	var vm *VM
	if b.arenaUsed < len(b.arena) {
		vm = &b.arena[b.arenaUsed]
		b.arenaUsed++
		*vm = VM{ID: VMID(len(b.vms)), Type: t, Region: region}
	} else {
		vm = &VM{ID: VMID(len(b.vms)), Type: t, Region: region}
	}
	vm.Slots = vm.slot0[:0:len(vm.slot0)]
	if b.market != nil {
		warm := b.warmLeft > 0
		if warm {
			b.warmLeft--
		}
		vm.Lease = b.terms(int(vm.ID), warm)
		if warm {
			// A warm VM is held from t=0; even if it never runs a task it
			// bills at least its keepalive (the cold start it amortizes).
			if d := vm.Lease.ColdStartDelay(); d > 0 {
				vm.Held = d
			}
		}
	}
	b.vms = append(b.vms, vm)
	return vm
}

// terms returns the market's lease terms for VM id. Terms is a pure
// function of the VM index and warmth, and a lease is immutable, so a
// builder that keeps terms draws each pair once over all its resets.
func (b *Builder) terms(id int, warm bool) *market.Lease {
	if !b.keepTerms {
		return b.market.Terms(id, warm)
	}
	k := 2 * id
	if warm {
		k++
	}
	for len(b.leases) <= k {
		b.leases = append(b.leases, nil)
	}
	if b.leases[k] == nil {
		b.leases[k] = b.market.Terms(id, warm)
	}
	return b.leases[k]
}

// NewPrepaidVM adds a private-cloud machine: capacity the user already
// owns, which bills nothing and has no BTU boundary. It is the substrate
// of the hybrid-cloud schedulers (HCOC).
func (b *Builder) NewPrepaidVM(t cloud.InstanceType) *VM {
	vm := b.NewVM(t)
	vm.Prepaid = true
	// Private capacity is outside the market: it has no lease terms, no
	// cold start, and no keepalive hold. Return any warm-pool slot NewVM
	// consumed so it goes to a machine that is actually rented.
	if vm.Lease.IsWarm() {
		b.warmLeft++
	}
	vm.Lease = nil
	vm.Held = 0
	return vm
}

// VMOf returns the VM a placed task runs on; it panics otherwise.
func (b *Builder) VMOf(t dag.TaskID) *VM {
	if !b.placed[t] {
		panic(fmt.Sprintf("plan: VMOf of unplaced task %d", t))
	}
	return b.vms[b.vmOf[t]]
}

// ReadyOn returns the earliest time all inputs of task t are available on
// vm: the max over predecessors of their finish time plus the transfer time
// (zero when the predecessor ran on the same VM). All predecessors must be
// placed.
func (b *Builder) ReadyOn(t dag.TaskID, vm *VM) float64 {
	var ready float64
	preds := b.wf.Pred(t)
	data := b.wf.PredData(t)
	for i, p := range preds {
		if !b.placed[p] {
			panic(fmt.Sprintf("plan: ReadyOn(%d): predecessor %d not placed", t, p))
		}
		at := b.end[p]
		if b.vmOf[p] != vm.ID {
			at += b.p.TransferTime(data[i], b.vms[b.vmOf[p]].Type, vm.Type)
		}
		if at > ready {
			ready = at
		}
	}
	return ready
}

// ExecTime returns the execution time of task t on an instance of type typ.
func (b *Builder) ExecTime(t dag.TaskID, typ cloud.InstanceType) float64 {
	return b.p.ExecTime(b.wf.Task(t).Work, typ)
}

// StartOn returns the time task t would start if placed on vm now: the
// later of its ready time and the VM's availability. The first task on a
// market VM also waits out the lease's cold start: a cold VM is requested
// at the task's ready time and boots for ColdStart seconds before the
// task can run; a warm VM booted at t=0, so its first task merely cannot
// start before the boot completes.
func (b *Builder) StartOn(t dag.TaskID, vm *VM) float64 {
	start := b.ReadyOn(t, vm)
	if len(vm.Slots) > 0 {
		if vm.Avail() > start {
			start = vm.Avail()
		}
		return start
	}
	if d := vm.Lease.ColdStartDelay(); d > 0 {
		if vm.Lease.IsWarm() {
			if d > start {
				start = d
			}
		} else {
			start += d
		}
	}
	return start
}

// FitsBTU reports whether placing task t on vm would keep the VM's busy
// span within the already-paid BTU boundary — the reuse condition of the
// *NotExceed provisioning policies. An empty VM always fits.
func (b *Builder) FitsBTU(t dag.TaskID, vm *VM) bool {
	if len(vm.Slots) == 0 {
		return true
	}
	end := b.StartOn(t, vm) + b.ExecTime(t, vm.Type)
	paid := vm.PaidBoundary()
	return end <= paid || cloud.Close(end, paid)
}

// PlaceOn schedules task t on vm at the earliest feasible time and returns
// the slot. It panics if t is already placed or a predecessor is not.
func (b *Builder) PlaceOn(t dag.TaskID, vm *VM) Slot {
	if b.placed[t] {
		panic(fmt.Sprintf("plan: task %d placed twice", t))
	}
	start := b.StartOn(t, vm)
	end := start + b.ExecTime(t, vm.Type)
	slot := Slot{Task: t, Start: start, End: end}
	vm.Slots = append(vm.Slots, slot)
	b.placed[t] = true
	b.start[t] = start
	b.end[t] = end
	b.vmOf[t] = vm.ID
	return slot
}

// BusiestVM returns the VM with the largest accumulated execution time
// among those for which keep returns true, or nil if none qualifies. Ties
// break toward the lower VM ID. This implements the paper's "the VM with
// the largest execution time is chosen" rule of the StartPar* policies.
func (b *Builder) BusiestVM(keep func(*VM) bool) *VM {
	var best *VM
	var bestBusy float64
	for _, vm := range b.vms {
		if keep != nil && !keep(vm) {
			continue
		}
		if busy := vm.Busy(); best == nil || busy > bestBusy {
			best, bestBusy = vm, busy
		}
	}
	return best
}

// Done finalizes the schedule. Every task must have been placed. The
// schedule takes ownership of the builder's bookkeeping buffers, so the
// builder must not be used after Done.
func (b *Builder) Done() *Schedule {
	for t, ok := range b.placed {
		if !ok {
			panic(fmt.Sprintf("plan: Done with unplaced task %d", t))
		}
	}
	s := &Schedule{
		Workflow:  b.wf,
		Platform:  b.p,
		VMs:       b.vms,
		Placement: b.vmOf,
		Start:     b.start,
		End:       b.end,
	}
	for _, vm := range s.VMs {
		// PlaceOn appends in non-decreasing start order (starts are clamped
		// to the VM's availability), so the slots are almost always sorted
		// already; sort only the rare timeline built out of order.
		if !slotsSorted(vm.Slots) {
			sort.Slice(vm.Slots, func(i, j int) bool { return vm.Slots[i].Start < vm.Slots[j].Start })
		}
	}
	return s
}

// copySchedule returns the placed schedule in fresh buffers — the VMs in
// one array, their slots in another, the per-task times copied — so the
// builder can be reset and placed again without touching it. Only the
// immutable lease terms are shared. Every task must have been placed.
func (b *Builder) copySchedule() *Schedule {
	vms := make([]VM, len(b.vms))
	slots := make([]Slot, 0, len(b.start))
	s := &Schedule{
		Workflow:  b.wf,
		Platform:  b.p,
		VMs:       make([]*VM, len(b.vms)),
		Placement: slices.Clone(b.vmOf),
		Start:     slices.Clone(b.start),
		End:       slices.Clone(b.end),
	}
	for i, vm := range b.vms {
		off := len(slots)
		slots = append(slots, vm.Slots...)
		vms[i] = *vm
		vms[i].Slots = slots[off:len(slots):len(slots)]
		s.VMs[i] = &vms[i]
	}
	return s
}

func slotsSorted(slots []Slot) bool {
	for i := 1; i < len(slots); i++ {
		if slots[i].Start < slots[i-1].Start {
			return false
		}
	}
	return true
}
