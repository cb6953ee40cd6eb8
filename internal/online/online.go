// Package online is the repository's continuous-traffic autoscaling
// harness, complementing the paper's offline (static) schedulers with the
// instance-intensive execution model of its related work (Sect. II):
// workflow instances arrive in an open loop (exponential inter-arrival
// gaps, arrivals never wait for the system), tasks are dispatched to a
// shared elastic VM pool, and a pluggable auto-scaling policy (Scaler)
// decides the pool's target size while scale-*down* follows Mao &
// Humphrey: an idle VM is only released at its billing-unit boundary,
// because the unit is paid either way and terminating mid-unit wastes
// money already spent. Per-second billing is the degenerate case — the
// boundary is everywhere, so surplus idle VMs release immediately.
//
// The harness composes the repository's economics and reliability layers:
// a market.Model attaches cold-start draws (a fresh VM cannot execute
// before its boot completes), billing granularities and spot pricing to
// every rent, and a fault.Config injects VM crashes — plus spot
// preemptions when the market is spot — that requeue the victim's running
// task. Workflow mixes are drawn from ndwf templates (Config.Mix), and
// an obs.Recorder receives per-VM lease tracks for the Perfetto
// exporter. Every stochastic input is seed-derived, so a run is a pure
// function of its Config.
package online

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/eventq"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ewmaAlpha weights the arrival-rate and instance-work moving averages
// the Predictive scaler reads.
const ewmaAlpha = 0.2

// Config parameterizes one online simulation.
type Config struct {
	// MeanInterarrival is the mean of the exponential inter-arrival time
	// between workflow instances, in seconds.
	MeanInterarrival float64
	// Instances is the number of workflow instances to run.
	Instances int
	// Instance builds the i-th arriving workflow; it may use the RNG for
	// per-instance variation. The returned workflow must be valid; Run
	// stops with an error at the first instance that is not. Run copies
	// what it needs of the workflow during the call, so a builder may
	// reset and rebuild one workflow for every instance.
	// Exactly one of Instance and Mix must be set.
	Instance func(i int, r *stats.RNG) *dag.Workflow
	// Mix draws each instance from weighted non-deterministic templates
	// instead: instance i's template choice and sample seed are hash-
	// derived from (Seed, i), deterministic and order-independent.
	Mix []MixEntry
	// Type and Region fix the pool's VM flavour (homogeneous pool, like
	// the paper's homogeneous experiments).
	Type   cloud.InstanceType
	Region cloud.Region
	// MinVMs VMs are kept alive even when idle; the pool never exceeds
	// MaxVMs.
	MinVMs, MaxVMs int
	// Scaler is the auto-scaling policy; nil selects Reactive.
	Scaler Scaler
	// Deadline is the per-instance response-time SLA in seconds (0 = no
	// SLA): input to the Deadline scaler and the SLAMet count.
	Deadline float64
	// Dispatch selects the ready-queue order: FIFO (default) or SJF
	// (shortest job first), the classic mean-response-time optimization
	// for heavy-tailed task sizes.
	Dispatch Dispatch
	// Market prices the pool: cold-start draws on every rent, billing
	// granularity, spot discounts and traces. Nil is the paper's
	// economics — on-demand, per-BTU, pre-booted VMs — reproduced
	// bit-for-bit. The model's WarmPool and Fallback knobs do not apply
	// here: MinVMs is the harness's warm pool, and preempted capacity is
	// re-rented by the scaler on demand.
	Market *market.Model
	// Faults injects VM crashes (CrashRate) and, when the market is spot,
	// provider preemptions (SpotPreemptRate). A killed VM is billed for
	// its held span and its running task requeues; tasks are never lost.
	Faults *fault.Config
	// Recorder, when non-nil, receives the run's telemetry as standard
	// obs events (lease/boot/rollover/task/crash/preempt), so the stream
	// renders in the Perfetto exporter with one track per VM lease.
	Recorder obs.Recorder
	// Seed drives arrivals and instance generation.
	Seed uint64
}

// Dispatch is a ready-queue ordering policy.
type Dispatch int

// The dispatch policies.
const (
	// FIFO serves ready tasks in arrival order.
	FIFO Dispatch = iota
	// SJF serves the shortest ready task first (ties by arrival). With
	// Pareto-sized tasks it cuts mean response time at the cost of
	// delaying the heavy tail.
	SJF
)

// String names the policy.
func (d Dispatch) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case SJF:
		return "sjf"
	}
	return fmt.Sprintf("Dispatch(%d)", int(d))
}

// ParseDispatch resolves a dispatch policy by name, case-insensitively.
func ParseDispatch(s string) (Dispatch, error) {
	switch {
	case s == "" || equalFold(s, "fifo"):
		return FIFO, nil
	case equalFold(s, "sjf"):
		return SJF, nil
	}
	return 0, fmt.Errorf("online: unknown dispatch %q (valid: fifo, sjf)", s)
}

// equalFold is strings.EqualFold for ASCII policy names.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Result is the measured outcome of an online run.
type Result struct {
	// ResponseTimes summarizes per-instance response times (arrival to
	// completion of the instance's last task), in seconds; Responses holds
	// the raw values in completion order for SLA analysis.
	ResponseTimes stats.Summary
	Responses     []float64
	// TotalCost is the rental bill in USD.
	TotalCost float64
	// PeakVMs is the largest concurrently rented pool size.
	PeakVMs int
	// VMsRented counts distinct rentals over the run.
	VMsRented int
	// BusySeconds and PaidSeconds give the pool utilization.
	BusySeconds, PaidSeconds float64
	// Makespan is the completion time of the last task, from the first
	// arrival at time zero.
	Makespan float64
	// Events counts dispatched simulator events.
	Events int
	// Crashes and Preemptions count VM leases lost to the fault model
	// (preemptions are spot reclamations, a distinct cause from crashes).
	Crashes, Preemptions int
	// ColdStartWaitS sums the cold-start delays drawn across rentals.
	ColdStartWaitS float64
	// SLAMet counts instances whose response time met Config.Deadline;
	// -1 when no deadline was configured.
	SLAMet int
}

// Utilization returns BusySeconds/PaidSeconds, or 0 for an idle run.
func (r *Result) Utilization() float64 {
	if r.PaidSeconds == 0 {
		return 0
	}
	return r.BusySeconds / r.PaidSeconds
}

// vm is one pool machine: a record in a slot of runner.vms, which the next
// rental takes over once this one is retired or killed.
type vm struct {
	id        int32 // rental id, in rent order across the run
	rentAt    float64
	readyAt   float64 // boot completes; tasks cannot execute earlier
	busy      bool
	busySum   float64
	dead      bool // retired or killed: the slot is free
	paidUnits int
	lease     *market.Lease
	// cur is the running task while busy; curStart is its execution start
	// (after any boot wait) and curExec its execution time — what the
	// finish event completes, and what a crash mid-task must requeue and
	// account.
	cur      readyTask
	curStart float64
	curExec  float64
}

// instance is an arrived workflow instance still in flight, with what the
// runner reads of its DAG, copied at arrival: no workflow outlives the
// builder call that returned it. A finished instance's record, arrays
// included, goes to the next arrival.
type instance struct {
	arrivedAt float64
	remaining int
	// tasks has one entry per task and one more, whose first ends the
	// last task's successors.
	tasks []instTask
	succ  []int32  // every task's successors, in first-AddEdge order
	names []string // task names, copied only for a recorder's labels
}

// instTask is one task of an instance: its reference work, its unfinished
// predecessors, and where its successors start in the instance's succ.
type instTask struct {
	work    float64
	pending int32
	first   int32
}

// load copies what the runner reads of wf, a frozen workflow, into the
// record's arrays, names only when asked, and returns wf's total work,
// summed in ID order.
func (inst *instance) load(wf *dag.Workflow, names bool) float64 {
	n := wf.Len()
	inst.tasks = resize(inst.tasks, n+1)
	inst.succ = resize(inst.succ, len(wf.Edges()))[:0]
	inst.names = inst.names[:0]
	total := 0.0
	for id := range n {
		t := wf.Task(dag.TaskID(id))
		inst.tasks[id] = instTask{work: t.Work, pending: int32(len(wf.Pred(t.ID))), first: int32(len(inst.succ))}
		for _, s := range wf.Succ(t.ID) {
			inst.succ = append(inst.succ, int32(s))
		}
		if names {
			inst.names = append(inst.names, t.Name)
		}
		total += t.Work
	}
	inst.tasks[n] = instTask{first: int32(len(inst.succ))}
	return total
}

// resize returns s resliced to length n, reallocated only when its
// capacity is short.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// vmRef names one rental: the slot of its record and its rental id. The
// slot alone is ambiguous once a later rental has taken it over.
type vmRef struct{ slot, id int32 }

// The event kinds, each about the VM rental its event names.
const (
	evUnit    uint8 = iota // the VM reaches a billing-unit boundary
	evCrash                // the VM crashes
	evPreempt              // the VM is reclaimed by the spot market
	evFinish               // the VM's running task completes
)

// event is one scheduled harness event. It names its VM by vmRef, not by
// pointer, so the queue holds no pointers for the collector to scan. An
// event whose rental has since been retired or killed is stale: it is
// still popped and counted, then skipped.
type event struct {
	kind uint8
	vm   vmRef
}

// runner is one online simulation in progress; its methods are the event
// handlers.
type runner struct {
	cfg       Config
	inj       *fault.Injector
	rng       *stats.RNG // the stream a Config.Instance builder draws from
	rec       obs.Recorder
	res       *Result
	unit      float64
	perSecond bool

	q   eventq.Heap[event]
	now float64
	// The arrival cursor: the next arrival's time, and the copy of the
	// seeded stream that draws the gap after it.
	nextArrival float64
	gaps        stats.RNG
	instances   []instance // by slot; free holds the finished ones' slots
	free        []int      // slots to reuse, the last freed first
	responses   []float64  // response times in completion order
	vms         []vm       // by slot; freeVMs holds the dead ones' slots
	freeVMs     []int32    // slots to reuse, the last freed first
	idle        []vmRef    // the live VMs without a task, in rent order
	ready       taskHeap
	queuedWork  float64 // summed exec time of ready tasks
	nextSeq     int
	nextTaskID  int32
	// Until every instance has arrived we cannot know the total; track
	// arrivals separately so the pool does not retire early.
	arrivalsLeft int
	tasksLeft    int // tasks not yet finished, across arrived instances
	// EWMA state for the Predictive scaler, updated per arrival.
	ewmaRate     float64
	ewmaInstWork float64
	lastArrival  float64
}

// Run executes the online simulation.
func Run(cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	for {
		more, err := r.next()
		if err != nil {
			return nil, err
		}
		if !more {
			return r.close()
		}
	}
}

// newRunner validates cfg, sets the arrival cursor on the first arrival
// and rents the warm pool.
func newRunner(cfg Config) (*runner, error) {
	if err := checkConfig(&cfg); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:          cfg,
		rng:          stats.NewRNG(cfg.Seed),
		gaps:         *stats.NewRNG(cfg.Seed),
		rec:          cfg.Recorder,
		res:          &Result{SLAMet: -1},
		unit:         cloud.BTU,
		responses:    make([]float64, 0, cfg.Instances),
		arrivalsLeft: cfg.Instances,
	}
	if cfg.Faults != nil && cfg.Faults.Active() {
		var err error
		if r.inj, err = fault.NewInjector(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	if cfg.Deadline > 0 {
		r.res.SLAMet = 0
	}
	// Billing cadence: the market's unit for per-BTU and per-minute
	// leases; per-second has no sunk cost to wait out, so scale-down goes
	// eager instead of scheduling an event every simulated second.
	if cfg.Market != nil {
		r.unit = cfg.Market.Gran.Unit()
		r.perSecond = cfg.Market.Gran == market.PerSecond
	}
	if cfg.Dispatch == SJF {
		r.ready.less = sjfLess
	} else {
		r.ready.less = fifoLess
	}

	// The first arrival is at time zero; each later gap (exponential) is
	// drawn from gaps as its predecessor arrives. The runner's own stream
	// skips the same n gaps here, so a builder's draws do not depend on
	// the arrivals, and two configs differing only in the builder see the
	// same arrival times.
	for range cfg.Instances {
		expSample(r.rng, cfg.MeanInterarrival)
	}
	// Warm pool.
	for i := 0; i < cfg.MinVMs; i++ {
		r.rent()
	}
	return r, nil
}

// next handles the earliest pending event, the next arrival or the head
// of the queue; it reports false once none is left. An arrival wins a tie
// with a queued event, as it would had it been queued first.
func (r *runner) next() (bool, error) {
	t, e, ok := r.q.Peek()
	arrival := r.arrivalsLeft > 0 && (!ok || r.nextArrival <= t)
	switch {
	case arrival:
		t = r.nextArrival
	case !ok:
		return false, nil
	default:
		r.q.Pop()
	}
	if t < r.now-1e-9 {
		return false, fmt.Errorf("online: time ran backwards (%v -> %v)", r.now, t)
	}
	r.now = t
	r.res.Events++
	if arrival {
		i := r.cfg.Instances - r.arrivalsLeft
		r.nextArrival += expSample(&r.gaps, r.cfg.MeanInterarrival)
		return true, r.arrive(i)
	}
	if m := &r.vms[e.vm.slot]; m.dead || m.id != e.vm.id {
		return true, nil // stale: the rental was retired or killed
	}
	switch e.kind {
	case evUnit:
		r.unitCheck(e.vm.slot)
	case evCrash:
		r.kill(e.vm.slot, false)
	case evPreempt:
		r.kill(e.vm.slot, true)
	case evFinish:
		r.finish(e.vm.slot)
	}
	return true, nil
}

// close retires every surviving VM, in rent order, and completes the
// result.
func (r *runner) close() (*Result, error) {
	for len(r.idle) > 0 {
		r.retire(r.idle[0].slot)
	}
	if len(r.responses) != r.cfg.Instances {
		return nil, fmt.Errorf("online: %d of %d instances completed", len(r.responses), r.cfg.Instances)
	}
	r.res.ResponseTimes = stats.Summarize(r.responses)
	r.res.Responses = r.responses
	r.res.Makespan = r.now
	return r.res, nil
}

// arrive admits instance i: its entry tasks become ready and the
// Predictive scaler's moving averages take in the arrival.
func (r *runner) arrive(i int) error {
	wf := r.cfg.Instance(i, r.rng)
	if wf == nil {
		return fmt.Errorf("online: instance %d: builder returned nil", i)
	}
	if err := wf.Freeze(); err != nil {
		return fmt.Errorf("online: instance %d invalid: %w", i, err)
	}
	n := wf.Len()
	r.arrivalsLeft--
	r.tasksLeft += n
	slot := len(r.instances)
	if k := len(r.free); k > 0 {
		slot = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		r.instances = append(r.instances, instance{})
	}
	inst := &r.instances[slot]
	inst.arrivedAt, inst.remaining = r.now, n
	totalWork := inst.load(wf, r.rec != nil)
	instExec := r.exec(totalWork)
	if i == 0 {
		r.ewmaRate = 1 / r.cfg.MeanInterarrival
		r.ewmaInstWork = instExec
	} else {
		if gap := r.now - r.lastArrival; gap > 0 {
			r.ewmaRate = ewmaAlpha*(1/gap) + (1-ewmaAlpha)*r.ewmaRate
		}
		r.ewmaInstWork = ewmaAlpha*instExec + (1-ewmaAlpha)*r.ewmaInstWork
	}
	r.lastArrival = r.now
	// The entry tasks, in ID order.
	for id, t := range inst.tasks[:n] {
		if t.pending > 0 {
			continue
		}
		r.pushReady(readyTask{inst: slot, task: dag.TaskID(id), readyAt: r.now, seq: r.nextSeq,
			work: t.work, id: r.nextTaskID, attempt: 1})
		r.nextSeq++
		r.nextTaskID++
	}
	r.dispatch()
	return nil
}

// unitCheck fires at a billing-unit boundary of the VM in slot: release
// the VM if it idles with an empty queue (and the pool is above its floor,
// or the run has drained), otherwise commit to another unit.
func (r *runner) unitCheck(slot int32) {
	m := &r.vms[slot]
	// After the last task of the last instance the warm-pool floor no
	// longer applies: everything drains so the simulation terminates.
	if !m.busy && r.ready.Len() == 0 && (r.liveVMs() > r.cfg.MinVMs || r.drained()) {
		r.retire(slot)
		return
	}
	m.paidUnits++
	if r.rec != nil && m.lease.BTUBilled() {
		r.rec.Record(obs.Event{Kind: obs.KindVMBTURollover, T: r.now, VM: m.id, Task: -1})
	}
	r.q.Push(m.rentAt+float64(m.paidUnits)*r.unit, event{kind: evUnit, vm: vmRef{slot, m.id}})
}

// drained reports that every instance has arrived and every task finished.
func (r *runner) drained() bool { return r.arrivalsLeft == 0 && r.tasksLeft == 0 }

// liveVMs is the rented pool size: the slots not free.
func (r *runner) liveVMs() int { return len(r.vms) - len(r.freeVMs) }

// kill is a crash or spot preemption of the VM in slot: the lease is
// billed for its held span, the running task (if any) requeues with a
// fresh attempt, and the scaler re-rents on demand.
func (r *runner) kill(slot int32, preempt bool) {
	m := &r.vms[slot]
	if m.busy {
		if r.now > m.curStart {
			m.busySum += r.now - m.curStart // partial execution was real work
		}
		rt := m.cur
		rt.attempt++
		rt.readyAt = r.now
		rt.seq = r.nextSeq
		r.nextSeq++
		r.pushReady(rt)
	}
	r.release(slot)
	cost := r.bill(m, r.now-m.rentAt)
	kind := obs.KindVMCrash
	if preempt {
		r.res.Preemptions++
		kind = obs.KindVMPreempt
	} else {
		r.res.Crashes++
	}
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: kind, T: r.now, VM: m.id, Task: -1})
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: r.now, VM: m.id, Task: -1, Value: cost})
	}
	r.dispatch()
}

// finish completes the running task of the VM in slot: successors whose
// last input it was become ready, and the freed VM takes the next ready
// task.
func (r *runner) finish(slot int32) {
	m := &r.vms[slot]
	rt := m.cur
	inst := &r.instances[rt.inst]
	m.busy = false // idle again, at its place in rent order
	i, _ := slices.BinarySearchFunc(r.idle, m.id, byID)
	r.idle = slices.Insert(r.idle, i, vmRef{slot, m.id})
	m.busySum += m.curExec
	r.tasksLeft--
	inst.remaining--
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskFinish, T: r.now, VM: m.id, Task: rt.id, Attempt: rt.attempt})
	}
	if inst.remaining == 0 {
		rtime := r.now - inst.arrivedAt
		r.responses = append(r.responses, rtime)
		if r.cfg.Deadline > 0 && rtime <= r.cfg.Deadline {
			r.res.SLAMet++
		}
		r.free = append(r.free, rt.inst)
	}
	for _, s := range inst.succ[inst.tasks[rt.task].first:inst.tasks[rt.task+1].first] {
		t := &inst.tasks[s]
		t.pending--
		if t.pending == 0 {
			r.pushReady(readyTask{inst: rt.inst, task: dag.TaskID(s), readyAt: r.now, seq: r.nextSeq,
				work: t.work, id: r.nextTaskID, attempt: 1})
			r.nextSeq++
			r.nextTaskID++
		}
	}
	r.dispatch()
}

// startTask runs rt on the VM v, just taken from the idle set, and
// schedules its finish.
func (r *runner) startTask(v vmRef, rt readyTask) {
	m := &r.vms[v.slot]
	m.busy = true
	st := r.now
	if m.readyAt > st {
		st = m.readyAt // a fresh VM cannot run work before its boot completes
	}
	et := r.exec(rt.work)
	m.cur, m.curStart, m.curExec = rt, st, et
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskStart, T: st, VM: m.id, Task: rt.id,
			Attempt: rt.attempt, Value: et, Label: r.instances[rt.inst].names[rt.task]})
	}
	r.q.Push(st+et, event{kind: evFinish, vm: v})
}

// dispatch sizes the pool to the scaler's target and hands ready tasks to
// idle VMs in rent order.
func (r *runner) dispatch() {
	cfg := &r.cfg
	if r.ready.Len() > 0 {
		want := cfg.Scaler.Desired(PoolState{
			Now:          r.now,
			Live:         r.liveVMs(),
			Idle:         len(r.idle),
			QueueDepth:   r.ready.Len(),
			QueuedWork:   r.queuedWork,
			ArrivalRate:  r.ewmaRate,
			InstanceWork: r.ewmaInstWork,
			Deadline:     cfg.Deadline,
			MinVMs:       cfg.MinVMs,
			MaxVMs:       cfg.MaxVMs,
		})
		// A non-empty queue must drain no matter how wrong the policy's
		// estimate is: floor at one VM, cap at the pool bound. Scalers
		// only grow the pool — release stays at billing boundaries.
		if want < 1 {
			want = 1
		}
		if want > cfg.MaxVMs {
			want = cfg.MaxVMs
		}
		for r.liveVMs() < want {
			r.rent()
		}
		// The k earliest-rented idle VMs take the k first ready tasks.
		k := min(len(r.idle), r.ready.Len())
		for _, v := range r.idle[:k] {
			r.startTask(v, r.popReady())
		}
		r.idle = r.idle[:copy(r.idle, r.idle[k:])]
	}
	if r.perSecond && r.ready.Len() == 0 {
		// Per-second billing has no sunk unit to ride out: surplus idle
		// VMs release immediately (the degenerate billing boundary), the
		// latest rented first.
		drained := r.drained()
		for len(r.idle) > 0 && (r.liveVMs() > cfg.MinVMs || drained) {
			r.retire(r.idle[len(r.idle)-1].slot)
		}
	}
}

// rent opens a lease on a new VM, idle in a free slot, and schedules its
// first billing-unit boundary and, under a fault model, its death.
func (r *runner) rent() {
	cfg := &r.cfg
	v := vmRef{slot: int32(len(r.vms)), id: int32(r.res.VMsRented)}
	if k := len(r.freeVMs); k > 0 {
		v.slot = r.freeVMs[k-1]
		r.freeVMs = r.freeVMs[:k-1]
	} else {
		r.vms = append(r.vms, vm{})
	}
	m := &r.vms[v.slot]
	*m = vm{id: v.id, rentAt: r.now, readyAt: r.now, paidUnits: 1}
	if cfg.Market != nil {
		m.lease = cfg.Market.Terms(int(v.id), false)
		delay := m.lease.ColdStartDelay()
		m.readyAt = r.now + delay
		r.res.ColdStartWaitS += delay
	}
	r.idle = append(r.idle, v) // the latest rental ends the rent order
	r.res.VMsRented++
	r.res.PeakVMs = max(r.res.PeakVMs, r.liveVMs())
	if !r.perSecond {
		r.q.Push(m.rentAt+r.unit, event{kind: evUnit, vm: v})
	}
	if r.inj != nil {
		killAt, preempt := r.inj.Losses(uint64(v.id), m.lease.IsSpot())
		kind := evCrash
		if preempt < killAt {
			killAt, kind = preempt, evPreempt
		}
		if !math.IsInf(killAt, 1) {
			r.q.Push(m.rentAt+killAt, event{kind: kind, vm: v})
		}
	}
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStart, T: m.rentAt, VM: m.id, Task: -1,
			Value: m.readyAt - m.rentAt, Label: cfg.Type.String() + m.lease.LabelSuffix()})
		if m.readyAt > m.rentAt {
			r.rec.Record(obs.Event{Kind: obs.KindVMBootDone, T: m.readyAt, VM: m.id, Task: -1})
		}
	}
}

// retire releases the idle VM in slot, billed for the units it committed
// to (actual span under per-second billing, where nothing is committed
// beyond the second in progress).
func (r *runner) retire(slot int32) {
	m := &r.vms[slot]
	r.release(slot)
	span := r.now - m.rentAt
	if !r.perSecond {
		span = float64(m.paidUnits) * r.unit
	}
	cost := r.bill(m, span)
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: r.now, VM: m.id, Task: -1, Value: cost})
	}
}

// release takes the VM in slot out of the pool: dead, out of the idle set
// if it idles, its slot free for the next rental. The record stays as it
// is until then, for the caller to bill.
func (r *runner) release(slot int32) {
	m := &r.vms[slot]
	m.dead = true
	if !m.busy {
		i, _ := slices.BinarySearchFunc(r.idle, m.id, byID)
		r.idle = slices.Delete(r.idle, i, i+1)
	}
	r.freeVMs = append(r.freeVMs, slot)
}

// byID orders the idle set by rental id, which is rent order.
func byID(v vmRef, id int32) int { return cmp.Compare(v.id, id) }

// bill closes the books on m's lease held for span seconds and returns
// the lease cost.
func (r *runner) bill(m *vm, span float64) float64 {
	paid, cost := m.lease.Bill(m.rentAt, span, r.cfg.Type, r.cfg.Region)
	r.res.TotalCost += cost
	r.res.PaidSeconds += paid
	r.res.BusySeconds += m.busySum
	return cost
}

// exec is the execution time of work (reference seconds on Small) on the
// pool's instance type, cloud.Platform.ExecTime's formula.
func (r *runner) exec(work float64) float64 { return work / r.cfg.Type.Speedup() }

func (r *runner) pushReady(rt readyTask) {
	r.ready.Push(rt)
	r.queuedWork += r.exec(rt.work)
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskQueued, T: rt.readyAt, VM: -1, Task: rt.id, Attempt: rt.attempt})
	}
}

func (r *runner) popReady() readyTask {
	rt := r.ready.Pop()
	r.queuedWork -= r.exec(rt.work)
	if r.ready.Len() == 0 {
		r.queuedWork = 0 // shed float drift at every drain
	}
	return rt
}

func checkConfig(cfg *Config) error {
	if cfg.MeanInterarrival <= 0 {
		return fmt.Errorf("online: non-positive mean interarrival %v", cfg.MeanInterarrival)
	}
	if cfg.Instances <= 0 {
		return fmt.Errorf("online: non-positive instance count %d", cfg.Instances)
	}
	switch {
	case cfg.Instance == nil && len(cfg.Mix) == 0:
		return fmt.Errorf("online: nil instance builder (set Instance or Mix)")
	case cfg.Instance != nil && len(cfg.Mix) > 0:
		return fmt.Errorf("online: both Instance and Mix set")
	case len(cfg.Mix) > 0:
		build, err := mixBuilder(cfg.Mix, cfg.Seed)
		if err != nil {
			return err
		}
		cfg.Instance = build
	}
	if !slices.Contains(cloud.InstanceTypes(), cfg.Type) {
		return fmt.Errorf("online: unknown instance type %v", cfg.Type)
	}
	if !slices.Contains(cloud.Regions(), cfg.Region) {
		return fmt.Errorf("online: unknown region %v", cfg.Region)
	}
	if cfg.MinVMs < 0 || cfg.MaxVMs <= 0 || cfg.MinVMs > cfg.MaxVMs {
		return fmt.Errorf("online: bad pool bounds [%d, %d]", cfg.MinVMs, cfg.MaxVMs)
	}
	if cfg.Deadline < 0 {
		return fmt.Errorf("online: negative deadline %v", cfg.Deadline)
	}
	if err := cfg.Market.Validate(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Fill().Validate(); err != nil {
			return err
		}
	}
	if cfg.Scaler == nil {
		cfg.Scaler = Reactive{}
	}
	return nil
}

// expSample draws an exponential variate with the given mean.
func expSample(r *stats.RNG, mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
