package plan

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/market"
)

// Assignment is a schedule skeleton: per VM, its instance type and the
// ordered queue of tasks it executes. The dynamic algorithms (CPA-Eager,
// Gain, AllPar1LnSDyn) iterate by mutating types and replaying.
type Assignment struct {
	Types  []cloud.InstanceType
	Queues [][]dag.TaskID
	// Prepaid marks private-cloud VMs (see VM.Prepaid); nil means none.
	Prepaid []bool
}

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := Assignment{
		Types:   append([]cloud.InstanceType(nil), a.Types...),
		Queues:  make([][]dag.TaskID, len(a.Queues)),
		Prepaid: append([]bool(nil), a.Prepaid...),
	}
	for i, q := range a.Queues {
		c.Queues[i] = append([]dag.TaskID(nil), q...)
	}
	return c
}

// AssignmentOf extracts the skeleton of an existing schedule, so a planner
// can iterate on it.
func AssignmentOf(s *Schedule) Assignment {
	a := Assignment{
		Types:   make([]cloud.InstanceType, len(s.VMs)),
		Queues:  make([][]dag.TaskID, len(s.VMs)),
		Prepaid: make([]bool, len(s.VMs)),
	}
	for i, vm := range s.VMs {
		a.Types[i] = vm.Type
		a.Prepaid[i] = vm.Prepaid
		for _, slot := range vm.Slots {
			a.Queues[i] = append(a.Queues[i], slot.Task)
		}
	}
	return a
}

// validateAssignment checks the assignment's shape against the workflow:
// every task assigned exactly once, no unknown tasks. seen is a caller-
// provided scratch of at least wf.Len() entries, zeroed on entry.
func validateAssignment(wf *dag.Workflow, a Assignment, seen []bool) error {
	if len(a.Types) != len(a.Queues) {
		return errors.New("plan: assignment types/queues length mismatch")
	}
	if a.Prepaid != nil && len(a.Prepaid) != len(a.Types) {
		return errors.New("plan: assignment prepaid length mismatch")
	}
	total := 0
	for _, q := range a.Queues {
		for _, t := range q {
			if int(t) < 0 || int(t) >= wf.Len() {
				return fmt.Errorf("plan: assignment references unknown task %d", t)
			}
			if seen[t] {
				return fmt.Errorf("plan: task %d assigned twice", t)
			}
			seen[t] = true
			total++
		}
	}
	if total != wf.Len() {
		return fmt.Errorf("plan: assignment covers %d of %d tasks", total, wf.Len())
	}
	return nil
}

// replayGreedy places every queued task through the builder: among VM
// queue heads whose predecessors are all placed, it repeatedly picks the
// one that can start earliest (ties: lowest task ID) — the same greedy the
// original planners used. heads is a caller-provided scratch of
// len(a.Queues) entries, zeroed on entry.
func replayGreedy(b *Builder, wf *dag.Workflow, a Assignment, vms []*VM, heads []int) error {
	for placed := 0; placed < wf.Len(); {
		bestVM := -1
		var bestStart float64
		var bestTask dag.TaskID
		for i, q := range a.Queues {
			if heads[i] >= len(q) {
				continue
			}
			t := q[heads[i]]
			ready := true
			for _, pr := range wf.Pred(t) {
				if !b.Placed(pr) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			start := b.StartOn(t, vms[i])
			if bestVM < 0 || start < bestStart || (start == bestStart && t < bestTask) {
				bestVM, bestStart, bestTask = i, start, t
			}
		}
		if bestVM < 0 {
			return errors.New("plan: assignment deadlocks against precedence constraints")
		}
		b.PlaceOn(a.Queues[bestVM][heads[bestVM]], vms[bestVM])
		heads[bestVM]++
		placed++
	}
	return nil
}

// ReplayMarket rebuilds the timed schedule implied by an assignment under
// a market model: every VM runs its queue in order, every task starts as
// soon as its inputs are available and its VM is free, and every rented
// VM is stamped with the model's lease terms (see Builder.SetMarket); a
// nil model keeps the paper's economics. It returns an error when the
// queues contradict the workflow's precedence constraints (deadlock) or
// do not cover every task exactly once.
func ReplayMarket(wf *dag.Workflow, p *cloud.Platform, region cloud.Region, m *market.Model, a Assignment) (*Schedule, error) {
	if err := validateAssignment(wf, a, make([]bool, wf.Len())); err != nil {
		return nil, err
	}
	b := NewBuilder(wf, p, region)
	b.SetMarket(m)
	vms := make([]*VM, len(a.Types))
	for i, typ := range a.Types {
		if a.Prepaid != nil && a.Prepaid[i] {
			vms[i] = b.NewPrepaidVM(typ)
		} else {
			vms[i] = b.NewVM(typ)
		}
		// The queue length is exactly the slot count the replay will place.
		if n := len(a.Queues[i]); n > 0 {
			vms[i].Slots = make([]Slot, 0, n)
		}
	}
	if err := replayGreedy(b, wf, a, vms, make([]int, len(a.Queues))); err != nil {
		return nil, err
	}
	return b.Done(), nil
}

// Replayer replays assignments over one fixed (workflow, platform, region,
// market) context with reusable scratch state, and prices them without
// materializing a Schedule. It answers two questions:
//
//   - Cost: what does this assignment cost? A full replay of any
//     assignment.
//   - Load, Retype, Keep, Undo: what would the loaded one-task-per-VM
//     assignment cost with one VM retyped? The upgrade loops of Gain and
//     CPA-Eager ask this for every trial; Retype re-places only the tasks
//     whose inputs the retype changed and re-bills only their VMs.
//
// Neither allocates in steady state: the builder bookkeeping, the VM and
// slot arenas, the per-VM bills and the trial's undo log are reset in
// place between calls, and market lease terms (pure functions of the VM
// index) are memoized. Both are float-bit-identical to
// ReplayMarket(...).TotalCost(): they place tasks through the same Builder
// methods and sum rental and transfer costs in the same order. A Replayer
// is not safe for concurrent use.
type Replayer struct {
	wf     *dag.Workflow
	p      *cloud.Platform
	region cloud.Region
	m      *market.Model

	b      Builder
	floats []float64 // backs b.start, b.end and bills
	mark   []bool    // per task: validation's seen set, then Retype's dirty set
	heads  []int
	slots  []Slot
	vmIdx  []int32         // task -> queue index, singleton-queue fast path
	cold   []*market.Lease // memoized m.Terms(id, false), indexed by VM id
	warm   []*market.Lease // memoized m.Terms(id, true)

	// The assignment Load placed, and the pending Retype trial.
	loaded   bool
	bills    []float64 // per-VM rent, in VM index order
	transfer float64   // the loaded assignment's transfer cost
	trialVM  int       // the VM the pending trial retyped; -1 when none
	trialOld cloud.InstanceType
	dirty    int      // tasks marked in mark but not yet re-placed
	log      []change // what the pending trial overwrote
}

// change is one entry of a trial's undo log: a task the trial re-placed
// with a different slot, or the retyped task itself, with its slot and
// its VM's bill as they were before the trial.
type change struct {
	task       dag.TaskID
	start, end float64
	bill       float64
}

// NewReplayer returns a Replayer for the given scheduling context. The
// workflow is frozen once, up front.
func NewReplayer(wf *dag.Workflow, p *cloud.Platform, region cloud.Region, m *market.Model) (*Replayer, error) {
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("plan: invalid workflow: %v", err)
	}
	return &Replayer{wf: wf, p: p, region: region, m: m}, nil
}

// Replay materializes the assignment's full schedule (ReplayMarket under
// the replayer's context). The result is freshly allocated and owned by
// the caller; the upgrade loops call this once, after their priced trials
// have driven all accept/reject decisions.
func (r *Replayer) Replay(a Assignment) (*Schedule, error) {
	return ReplayMarket(r.wf, r.p, r.region, r.m, a)
}

// terms memoizes the market model's lease terms per (VM id, warm). Terms
// is a pure function of those inputs and leases are immutable once
// created, so reusing them across replays is sound — and none of the
// cost-path VMs escape the replayer, so the cache never aliases a
// returned Schedule.
func (r *Replayer) terms(id int, warm bool) *market.Lease {
	cache := &r.cold
	if warm {
		cache = &r.warm
	}
	for len(*cache) <= id {
		*cache = append(*cache, nil)
	}
	if l := (*cache)[id]; l != nil {
		return l
	}
	l := r.m.Terms(id, warm)
	(*cache)[id] = l
	return l
}

// reset rebuilds the embedded builder in place for a replay renting up to
// nvms VMs, reusing every buffer whose capacity suffices.
func (r *Replayer) reset(nvms int) {
	b := &r.b
	n := r.wf.Len()
	b.wf, b.p, b.region = r.wf, r.p, r.region
	if cap(b.vms) < nvms {
		b.vms = make([]*VM, 0, nvms)
	} else {
		b.vms = b.vms[:0]
	}
	if cap(b.placed) < n {
		b.placed = make([]bool, n)
	} else {
		b.placed = b.placed[:n]
		clear(b.placed)
	}
	// The builder's start and end times and Load's per-VM bills share one
	// block.
	if need := 2*n + nvms; cap(r.floats) < need {
		r.floats = make([]float64, need)
	}
	b.start, b.end = r.floats[:n:n], r.floats[n:2*n:2*n]
	r.bills = r.floats[2*n : 2*n+nvms : 2*n+nvms]
	if cap(b.vmOf) < n {
		b.vmOf = make([]VMID, n)
	} else {
		b.vmOf = b.vmOf[:n]
	}
	for i := range b.vmOf {
		b.vmOf[i] = -1
	}
	if len(b.arena) < nvms {
		b.arena = make([]VM, nvms)
	}
	b.arenaUsed = 0
	b.market = r.m
	b.warmLeft = 0
	if r.m != nil {
		b.warmLeft = r.m.WarmPool
		// Size the lease-term memo once rather than growing it VM by VM.
		if n := nvms - len(r.cold); n > 0 {
			r.cold = slices.Grow(r.cold, n)
		}
	}
}

// addVM replicates Builder.NewVM / NewPrepaidVM against the memoized
// lease-term cache. A prepaid VM is outside the market — no lease, no
// hold, and its warm-pool slot goes to the next rented VM — which is
// exactly the net effect of NewPrepaidVM returning the slot NewVM
// consumed.
func (r *Replayer) addVM(typ cloud.InstanceType, prepaid bool) *VM {
	b := &r.b
	var vm *VM
	if b.arenaUsed < len(b.arena) {
		vm = &b.arena[b.arenaUsed]
		b.arenaUsed++
		*vm = VM{ID: VMID(len(b.vms)), Type: typ, Region: b.region}
	} else {
		vm = &VM{ID: VMID(len(b.vms)), Type: typ, Region: b.region}
	}
	vm.Prepaid = prepaid
	if b.market != nil && !prepaid {
		warm := b.warmLeft > 0
		if warm {
			b.warmLeft--
		}
		vm.Lease = r.terms(int(vm.ID), warm)
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

// Cost replays the assignment and returns its total (rental + transfer)
// cost, bit-identical to what Replay(a).TotalCost() would report, without
// materializing the schedule. Steady-state calls allocate nothing. Cost
// discards the assignment Load placed.
func (r *Replayer) Cost(a Assignment) (float64, error) {
	r.loaded = false
	if err := r.place(a); err != nil {
		return 0, err
	}
	// Mirror Done()'s slot ordering, then Schedule.TotalCost()'s exact
	// summation order: rental per VM in rental order, transfers per edge in
	// the workflow's sorted edge order.
	b := &r.b
	for _, vm := range b.vms {
		if !slotsSorted(vm.Slots) {
			sort.Slice(vm.Slots, func(i, j int) bool { return vm.Slots[i].Start < vm.Slots[j].Start })
		}
	}
	var rental float64
	for _, vm := range b.vms {
		rental += vm.Cost()
	}
	return rental + r.transferCost(), nil
}

// place validates the assignment and replays it into the embedded builder.
func (r *Replayer) place(a Assignment) error {
	n := r.wf.Len()
	if cap(r.mark) < n {
		r.mark = make([]bool, n)
	} else {
		r.mark = r.mark[:n]
		clear(r.mark)
	}
	if err := validateAssignment(r.wf, a, r.mark); err != nil {
		return err
	}
	r.reset(len(a.Types))
	b := &r.b
	if cap(r.slots) < n {
		r.slots = make([]Slot, n)
	}
	if cap(r.vmIdx) < n {
		r.vmIdx = make([]int32, n)
	} else {
		r.vmIdx = r.vmIdx[:n]
	}
	singletons := true
	off := 0
	for i, typ := range a.Types {
		vm := r.addVM(typ, a.Prepaid != nil && a.Prepaid[i])
		// The queue length is exactly the slot count the replay will place;
		// cap the sub-slice so a stray append could never cross VMs.
		if qn := len(a.Queues[i]); qn > 0 {
			vm.Slots = r.slots[off : off : off+qn]
			off += qn
			if qn > 1 {
				singletons = false
			}
			for _, t := range a.Queues[i] {
				r.vmIdx[t] = int32(i)
			}
		}
	}
	if singletons {
		// One task per VM — the shape of the upgrade algorithms' candidate
		// assignments. Queue order cannot constrain anything (no VM ever
		// waits on its own queue), so each task's start is a pure function
		// of its predecessors' placements, and topological placement yields
		// float-identical times to the greedy replay — at O(V+E) instead of
		// the greedy's O(tasks × VMs) ready-head scan.
		for _, t := range r.wf.TopoOrder() {
			b.PlaceOn(t, b.vms[r.vmIdx[t]])
		}
		return nil
	}
	if cap(r.heads) < len(a.Queues) {
		r.heads = make([]int, len(a.Queues))
	} else {
		r.heads = r.heads[:len(a.Queues)]
		clear(r.heads)
	}
	return replayGreedy(b, r.wf, a, b.vms, r.heads)
}

// transferCost sums the placed assignment's transfer prices per edge in
// the workflow's sorted edge order, as Schedule.TransferCost does.
func (r *Replayer) transferCost() float64 {
	b := &r.b
	var transfer float64
	for _, e := range r.wf.Edges() {
		from := b.vms[b.vmOf[e.From]]
		to := b.vms[b.vmOf[e.To]]
		if from.ID != to.ID {
			transfer += r.p.TransferCost(e.Data, from.Region, to.Region)
		}
	}
	return transfer
}

// Load places a one-task-per-VM assignment, returns its cost as Cost
// would, and keeps it as the base of Retype trials. The replayer does not
// retain a: the loaded types live in its own VMs, and callers that track
// the assignment update their copy when they Keep a trial. Load reuses
// the buffers of Cost, so a replayer shared by several upgrade loops
// allocates nothing per Load in steady state.
func (r *Replayer) Load(a Assignment) (float64, error) {
	r.loaded = false
	for i, q := range a.Queues {
		if len(q) != 1 {
			return 0, fmt.Errorf("plan: Load needs one task per VM, VM %d has %d", i, len(q))
		}
	}
	if err := r.place(a); err != nil {
		return 0, err
	}
	b := &r.b
	var rental float64
	for i, vm := range b.vms {
		r.bills[i] = vm.Cost()
		rental += r.bills[i]
	}
	// A retype moves no task and changes no region, so no trial changes
	// the transfer cost.
	r.transfer = r.transferCost()
	if cap(r.log) < len(b.vms) {
		r.log = make([]change, 0, len(b.vms))
	}
	r.log = r.log[:0]
	clear(r.mark) // validation marked every task seen
	r.dirty, r.trialVM, r.loaded = 0, -1, true
	return rental + r.transfer, nil
}

// Retype prices the loaded assignment with VM vm retyped to typ, and
// leaves the retype applied as a pending trial: call Keep or Undo before
// the next Retype. The price is bit-identical to Cost of the retyped
// assignment, under every market:
//
//   - Every task's slot is a pure function of its predecessors' ends,
//     its own and its predecessors' VM types, and its VM's lease terms,
//     which depend only on the VM index. Retype recomputes the retyped
//     task, its successors (their transfers from it depend on its type)
//     and, transitively, the successors of every task whose end changed,
//     in level order through the same Builder.StartOn and ExecTime calls
//     the full replay makes. Every other slot keeps its bits.
//   - A VM's bill is a pure function of its one slot, its type and its
//     lease terms, so only the retyped VM and the VMs of moved tasks are
//     re-billed. The bills are re-summed in VM index order and the fixed
//     transfer cost added, the summation order of Cost.
func (r *Replayer) Retype(vm int, typ cloud.InstanceType) float64 {
	if !r.loaded || r.trialVM >= 0 {
		panic("plan: Retype needs a loaded assignment and no pending trial")
	}
	b := &r.b
	v := b.vms[vm]
	r.trialVM, r.trialOld = vm, v.Type
	v.Type = typ
	t := v.Slots[0].Task
	r.markDirty(t)
	for _, s := range r.wf.Succ(t) {
		r.markDirty(s)
	}
	// Level order is a topological order, and every marked task lies at
	// or above t's level.
	levels := r.wf.Levels()
	for l := r.wf.Level(t); r.dirty > 0; l++ {
		for _, x := range levels[l] {
			if !r.mark[x] {
				continue
			}
			r.mark[x] = false
			r.dirty--
			xvm := b.vms[b.vmOf[x]]
			old := xvm.Slots[0]
			xvm.Slots = xvm.Slots[:0] // StartOn places onto an empty VM
			start := b.StartOn(x, xvm)
			end := start + b.ExecTime(x, xvm.Type)
			xvm.Slots = append(xvm.Slots, Slot{Task: x, Start: start, End: end})
			if x != t && start == old.Start && end == old.End {
				continue
			}
			r.log = append(r.log, change{task: x, start: old.Start, end: old.End, bill: r.bills[xvm.ID]})
			b.start[x], b.end[x] = start, end
			r.bills[xvm.ID] = xvm.Cost()
			if end != old.End {
				for _, s := range r.wf.Succ(x) {
					r.markDirty(s)
				}
			}
		}
	}
	var rental float64
	for _, c := range r.bills {
		rental += c
	}
	return rental + r.transfer
}

// markDirty marks a task for re-placement by the running trial.
func (r *Replayer) markDirty(t dag.TaskID) {
	if !r.mark[t] {
		r.mark[t] = true
		r.dirty++
	}
}

// Keep makes the pending trial part of the loaded assignment.
func (r *Replayer) Keep() {
	r.log = r.log[:0]
	r.trialVM = -1
}

// Undo reverts the pending trial: the retyped VM gets its type back, and
// every slot and bill the trial changed its old value.
func (r *Replayer) Undo() {
	b := &r.b
	b.vms[r.trialVM].Type = r.trialOld
	for _, c := range r.log {
		vm := b.vms[b.vmOf[c.task]]
		vm.Slots[0].Start, vm.Slots[0].End = c.start, c.end
		b.start[c.task], b.end[c.task] = c.start, c.end
		r.bills[vm.ID] = c.bill
	}
	r.log = r.log[:0]
	r.trialVM = -1
}
