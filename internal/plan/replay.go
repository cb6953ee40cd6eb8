package plan

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/market"
)

// Assignment is a schedule skeleton: per VM, its instance type and the
// ordered queue of tasks it executes. The iterating algorithms (CPA-Eager,
// Gain, HCOC) change types or queues and replay it.
type Assignment struct {
	Types  []cloud.InstanceType
	Queues [][]dag.TaskID
	// Prepaid marks private-cloud VMs (see VM.Prepaid); nil means none.
	Prepaid []bool
}

// Clone returns a deep copy of the assignment, its queues cut from one
// array.
func (a Assignment) Clone() Assignment {
	c := Assignment{
		Types:   append([]cloud.InstanceType(nil), a.Types...),
		Queues:  make([][]dag.TaskID, len(a.Queues)),
		Prepaid: append([]bool(nil), a.Prepaid...),
	}
	n := 0
	for _, q := range a.Queues {
		n += len(q)
	}
	tasks := make([]dag.TaskID, 0, n)
	for i, q := range a.Queues {
		tasks = append(tasks, q...)
		c.Queues[i] = tasks[len(tasks)-len(q) : len(tasks) : len(tasks)]
	}
	return c
}

// AssignmentOf extracts the skeleton of an existing schedule, so a planner
// can iterate on it. The queues are cut from one array.
func AssignmentOf(s *Schedule) Assignment {
	a := Assignment{
		Types:   make([]cloud.InstanceType, len(s.VMs)),
		Queues:  make([][]dag.TaskID, len(s.VMs)),
		Prepaid: make([]bool, len(s.VMs)),
	}
	tasks := make([]dag.TaskID, 0, len(s.Start))
	for i, vm := range s.VMs {
		a.Types[i] = vm.Type
		a.Prepaid[i] = vm.Prepaid
		for _, slot := range vm.Slots {
			tasks = append(tasks, slot.Task)
		}
		a.Queues[i] = tasks[len(tasks)-len(vm.Slots) : len(tasks) : len(tasks)]
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

// placeGreedy places every queued task, queue i on VM i: among the queue
// heads whose predecessors are all placed, it repeatedly picks the one
// that can start earliest (ties: lowest task ID) — the same greedy the
// original planners used. heads is a caller-provided scratch of
// len(a.Queues) entries, zeroed on entry.
func (b *Builder) placeGreedy(a Assignment, heads []int) error {
	for placed := 0; placed < b.wf.Len(); {
		bestVM := -1
		var bestStart float64
		var bestTask dag.TaskID
		for i, q := range a.Queues {
			if heads[i] >= len(q) {
				continue
			}
			t := q[heads[i]]
			ready := true
			for _, pr := range b.wf.Pred(t) {
				if !b.placed[pr] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			start := b.StartOn(t, b.vms[i])
			if bestVM < 0 || start < bestStart || (start == bestStart && t < bestTask) {
				bestVM, bestStart, bestTask = i, start, t
			}
		}
		if bestVM < 0 {
			return errors.New("plan: assignment deadlocks against precedence constraints")
		}
		b.PlaceOn(bestTask, b.vms[bestVM])
		heads[bestVM]++
		placed++
	}
	return nil
}

// Replayer turns assignments into timed slots over one fixed (workflow,
// platform, region, market) context, reusing its scratch state; it is the
// package's one path from an Assignment to a schedule. It answers two
// questions:
//
//   - Replay: what schedule does this assignment imply? Every VM runs
//     its queue in order, every task starts as soon as its inputs are
//     available and its VM is free, and every rented VM carries the
//     market's lease terms (see Builder.SetMarket).
//   - Load, Retype, Keep, Undo: what would the loaded one-task-per-VM
//     assignment cost with one VM retyped? The upgrade loops of Gain and
//     CPA-Eager ask this for every trial; Retype re-places only the tasks
//     whose inputs the retype changed and re-bills only their VMs.
//
// Placement runs in the replayer's own Builder, reset in place, which
// keeps the market's lease terms (pure functions of the VM index) across
// resets, so Load and the trials allocate nothing in steady state. Every
// price is float-bit-identical to Replay(a).TotalCost(): it places tasks
// through the same Builder methods and sums rental and transfer costs in
// the same order. A Replayer is not safe for concurrent use.
type Replayer struct {
	b     Builder
	mark  []bool  // per task: validation's seen set, then Retype's dirty set
	heads []int   // the greedy scan's next position per queue
	vmIdx []int32 // task -> queue index, for topological placement

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

// NewReplayer returns a Replayer for the given scheduling context; a nil
// market model keeps the paper's economics. The workflow is frozen once,
// up front.
func NewReplayer(wf *dag.Workflow, p *cloud.Platform, region cloud.Region, m *market.Model) (*Replayer, error) {
	if err := wf.Freeze(); err != nil {
		return nil, fmt.Errorf("plan: invalid workflow: %v", err)
	}
	r := &Replayer{b: Builder{wf: wf, p: p, region: region, keepTerms: true}}
	r.b.SetMarket(m)
	return r, nil
}

// Replay places the assignment and returns its schedule, in fresh
// buffers that share nothing with the replayer but the immutable lease
// terms. It returns an error when the queues do not cover every task
// exactly once or contradict the workflow's precedence constraints
// (deadlock). Replay discards the assignment Load placed.
func (r *Replayer) Replay(a Assignment) (*Schedule, error) {
	if err := r.place(a); err != nil {
		return nil, err
	}
	return r.b.copySchedule(), nil
}

// place validates the assignment and places it into the builder, which
// rents VM i for queue i through NewVM or NewPrepaidVM. A one-task-per-VM
// assignment (empty queues allowed) — the shape of the upgrade loops'
// candidates — is placed in topological order in O(V+E): no VM ever
// waits on its own queue, so each task's slot is a pure function of its
// predecessors' slots and VMs and of its own VM, and any order that
// respects precedence yields the bits of the greedy scan. Every other
// shape goes through the greedy scan, O(tasks × VMs).
func (r *Replayer) place(a Assignment) error {
	r.loaded = false
	b := &r.b
	n := b.wf.Len()
	r.mark = resize(r.mark, n)
	clear(r.mark)
	if err := validateAssignment(b.wf, a, r.mark); err != nil {
		return err
	}
	b.reset(len(a.Types))
	r.vmIdx = resize(r.vmIdx, n)
	singletons := true
	for i, typ := range a.Types {
		if a.Prepaid != nil && a.Prepaid[i] {
			b.NewPrepaidVM(typ)
		} else {
			b.NewVM(typ)
		}
		for _, t := range a.Queues[i] {
			r.vmIdx[t] = int32(i)
		}
		singletons = singletons && len(a.Queues[i]) <= 1
	}
	if singletons {
		for _, t := range b.wf.TopoOrder() {
			b.PlaceOn(t, b.vms[r.vmIdx[t]])
		}
		return nil
	}
	r.heads = resize(r.heads, len(a.Queues))
	clear(r.heads)
	return b.placeGreedy(a, r.heads)
}

// Load places a one-task-per-VM assignment, returns its cost, bit-identical
// to Replay(a).TotalCost(), and keeps it as the base of Retype trials. The
// replayer does not retain a: the loaded types live in its own VMs, and
// callers that track the assignment update their copy when they Keep a
// trial. A replayer shared by several upgrade loops allocates nothing per
// Load in steady state.
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
	r.bills = resize(r.bills, len(b.vms))
	var rental float64
	for i, vm := range b.vms {
		r.bills[i] = vm.Bill().Cost
		rental += r.bills[i]
	}
	// A retype moves no task and changes no region, so no trial changes
	// the transfer cost.
	r.transfer = transferCost(b.wf, b.p, b.vms, b.vmOf)
	r.log = resize(r.log, len(b.vms))[:0]
	clear(r.mark) // validation marked every task seen
	r.dirty, r.trialVM, r.loaded = 0, -1, true
	return rental + r.transfer, nil
}

// Retype prices the loaded assignment with VM vm retyped to typ, and
// leaves the retype applied as a pending trial: call Keep or Undo before
// the next Retype. The price is bit-identical to Replay(a).TotalCost() of
// the retyped assignment a, under every market:
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
//     transfer cost added, the summation order of Schedule.TotalCost.
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
	for _, s := range b.wf.Succ(t) {
		r.markDirty(s)
	}
	// Level order is a topological order, and every marked task lies at
	// or above t's level.
	levels := b.wf.Levels()
	for l := b.wf.Level(t); r.dirty > 0; l++ {
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
			r.bills[xvm.ID] = xvm.Bill().Cost
			if end != old.End {
				for _, s := range b.wf.Succ(x) {
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
