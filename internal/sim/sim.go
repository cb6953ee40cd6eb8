// Package sim is a discrete-event simulator that executes a planned
// schedule event by event: tasks occupy their assigned VMs in queue order,
// data moves between VMs with store-and-forward transfers, and VM leases
// are measured from observed first-start to last-end. It is the
// repository's substitute for the paper's "custom made simulator", with one
// extra guarantee: because the planner computes schedules analytically and
// the simulator replays them operationally, any disagreement between the
// two exposes a modelling bug (see validate.PlanSim).
//
// The simulator also supports a non-zero VM boot time, the effect the paper
// explicitly ignores (static scheduling allows pre-booting); setting it
// quantifies what pre-booting is worth.
//
// # Fault injection
//
// Config.Faults un-ignores the other idealization of the paper: the
// perfect cloud. With an active fault model (internal/fault) the replay
// loses VMs mid-lease (exponential time-to-crash, the Poisson process of
// the IaaS reliability literature) and aborts task attempts partway
// through (per-attempt Bernoulli draws), then recovers per the configured
// policy:
//
//   - retry: the failed attempt re-runs on the same VM after a capped
//     exponential backoff; a crashed VM is replaced in place (same type,
//     fresh lease through provision.Replace, replacement boot lag) and its
//     surviving queue re-runs there;
//   - resubmit: the failed task moves to a freshly provisioned VM, paying
//     a new BTU and the boot lag;
//   - fail: the first fault aborts the workflow, and the Result reports
//     the completed fraction and the sunk cost.
//
// Outputs of completed tasks are durable: a consumer whose VM is replaced
// re-stages its inputs for free. Every stochastic draw is a pure function
// of (fault seed, entity identity, attempt), so a faulty run is replayable
// bit-for-bit and independent of event interleaving.
//
// # Replay state layout
//
// The replay state is structure-of-arrays: per-VM state lives in one flat
// slice indexed by VM incarnation, per-task state (pending counts,
// attempts, observed times) in parallel slices indexed by task ID, and the
// event queue carries small value payloads instead of closures. All of it
// sits in a Scratch that is reset — not reallocated — between runs, so a
// hot loop of replays (the paranoid sweep, Monte-Carlo SLA sampling)
// allocates nothing in steady state. The package-level Run keeps the
// allocate-and-return API on top of a pooled Scratch.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/eventq"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/provision"
)

// Config tunes the simulation.
type Config struct {
	// BootTime delays the first task of every VM: the VM is requested when
	// its first task could otherwise start, and becomes usable BootTime
	// seconds later. Zero reproduces the paper's pre-booted setting. A VM
	// carrying market lease terms (plan.VM.Lease) ignores BootTime and
	// boots for its lease's cold-start delay instead — the market model
	// owns boot economics for the VMs it priced, which is what keeps the
	// planner (whose StartOn adds the same delay) and the simulator in
	// exact agreement.
	BootTime float64
	// Faults injects stochastic VM crashes and transient task failures
	// into the replay (see the package comment). Nil — or a config whose
	// rates are both zero — reproduces the paper's perfect cloud exactly.
	Faults *fault.Config
	// Recorder, when non-nil, receives the replay's lifecycle events
	// (lease open/boot/BTU-rollover/stop/crash, task queued/start/finish/
	// retry/resubmit, transfers) in simulated-time order. The stream is
	// deterministic: same schedule + same config ⇒ identical events, and
	// recording changes no field of the Result. Nil records nothing, at
	// one predictable branch per site.
	Recorder obs.Recorder
}

// Result holds the measured execution of a schedule.
type Result struct {
	// TaskStart and TaskEnd are the observed task times, indexed by TaskID.
	// TaskStart records the latest attempt's start; TaskEnd is NaN for
	// tasks that never completed (aborted runs).
	TaskStart, TaskEnd []float64
	// Makespan is the observed completion time of the last task (for
	// aborted runs: the time the last surviving lease ended).
	Makespan float64
	// RentalCost is the total lease price given the observed lease spans
	// (boot time included: a booting VM is a billed VM). Crashed leases
	// bill up to the crash.
	RentalCost float64
	// IdleTime is the total paid-but-unused VM time, booting included.
	// Time burned by failed attempts counts as used here; WastedSeconds
	// reports it separately.
	IdleTime float64
	// Events counts dispatched simulator events.
	Events int
	// Transfers counts cross-VM data movements.
	Transfers int

	// Fault and recovery accounting. A fault-free run completes
	// trivially: Completed is true, CompletedTasks equals the workflow
	// size, and the remaining fields are zero.
	Completed      bool
	CompletedTasks int
	// FailReason describes why an uncompleted run gave up.
	FailReason string
	// VMCrashes counts leases lost mid-flight; ReplacementVMs counts the
	// fresh leases recovery opened (crash replacements and resubmission
	// targets).
	VMCrashes      int
	ReplacementVMs int
	// TaskFailures counts transient attempt aborts; Retries and Resubmits
	// count the recovery actions taken for them.
	TaskFailures int
	Retries      int
	Resubmits    int
	// WastedSeconds is execution time burned by attempts that did not
	// complete: transient aborts plus crash-interrupted work.
	WastedSeconds float64

	// Market accounting (zero without market lease terms). Spot
	// preemptions are the market layer's crash cause and are counted
	// apart from VMCrashes; FallbackVMs counts on-demand replacements
	// opened by the SpotFallback hedge (a subset of ReplacementVMs), and
	// FallbackPremium is the extra cost those leases billed over what
	// the original spot terms would have charged for the same spans.
	// WarmIdleSeconds is the paid-but-unused time of warm-pool leases —
	// the standing cost of the WarmPool hedge.
	SpotPreemptions int
	FallbackVMs     int
	FallbackPremium float64
	WarmIdleSeconds float64
}

// reset clears the result for reuse, sizing the task arrays for n tasks
// without reallocating when their capacity already suffices.
func (res *Result) reset(n int) {
	ts, te := res.TaskStart, res.TaskEnd
	*res = Result{}
	if cap(ts) < n {
		ts = make([]float64, n)
	} else {
		ts = ts[:n]
	}
	if cap(te) < n {
		te = make([]float64, n)
	} else {
		te = te[:n]
	}
	for i := range ts {
		ts[i] = math.NaN()
		te[i] = math.NaN()
	}
	res.TaskStart, res.TaskEnd = ts, te
}

// Event kinds for the typed event queue. The payload is a small value
// struct — no closures — so pushing an event never allocates and a pooled
// queue pins nothing alive between runs.
const (
	evKill    uint8 = iota // crash the VM lease (vi)
	evPreempt              // spot-preempt the VM lease (vi)
	evArrive               // a task input arrived (task)
	evResume               // retry backoff elapsed, free the VM (vi)
	evBoot                 // boot lag elapsed, the VM is usable (vi)
	evFail                 // the running attempt aborts (vi, task, att, val=burned)
	evFinish               // the running attempt completes (vi, task, att, val=exec time)
)

// ev is one scheduled simulator event.
type ev struct {
	kind uint8
	vi   int32
	task int32
	att  int32
	val  float64
}

// vmState is the per-VM runtime state (one lease incarnation).
type vmState struct {
	vm       *plan.VM
	fb       *market.Lease // original spot terms when this lease is an on-demand fallback
	queue    []int32       // task IDs in slot order
	head     int32
	running  int32 // task mid-attempt, or -1
	busy     bool
	started  bool // first task has begun (lease anchored)
	bootDone bool
	dead     bool // lease lost to a crash
	leaseAt  float64
	busySum  float64
	lastEnd  float64
	deadAt   float64
	boot     float64 // boot lag before the first task (replacements re-pay it)
	inc      uint64  // fault-stream incarnation identity
}

// Scratch holds the simulator's reusable replay state: the typed event
// heap, the per-VM state arena, the flat task-queue arena the initial VM
// queues are sub-sliced from, and the per-task parallel arrays. A Scratch
// is reset between runs — capacity is kept, contents are rebuilt — so
// replaying same-sized schedules in a loop is allocation-free in steady
// state (fault recovery still allocates: replacement leases and their
// queues are genuinely new state). The zero value is ready to use. A
// Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	q       eventq.Heap[ev]
	vms     []vmState
	qarena  []int32 // backing store for the initial VM queues
	vmOf    []int32 // task -> current VM incarnation
	pending []int32 // unfinished predecessor count per task
	attempt []int32 // execution attempts started, for event staleness and fault draws
	tfails  []int32 // transient failures, capped by MaxRetries
}

// grow32 returns s resized to n, reallocating only when capacity is short.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// scratchPool backs the package-level Run so callers that don't manage a
// Scratch of their own still reuse replay state across runs.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Run executes the schedule and returns the measured result. It draws a
// pooled Scratch internally; hot loops that replay many schedules should
// hold their own Scratch and call Scratch.Run with a reused Result.
func Run(s *plan.Schedule, cfg Config) (*Result, error) {
	sc := scratchPool.Get().(*Scratch)
	res := &Result{}
	err := sc.Run(s, cfg, res)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runner is the in-flight replay: the Scratch arrays plus the run-scoped
// scalars the event handlers share. Methods on runner replace what used to
// be a web of closures; every event handler re-derives its *vmState from
// the index because fault recovery may grow the vms slice mid-run.
type runner struct {
	sc       *Scratch
	s        *plan.Schedule
	wf       *dag.Workflow
	rec      obs.Recorder
	inj      *fault.Injector
	rebootS  float64
	res      *Result
	now      float64
	done     int
	aborted  bool
	crashCap int
	nextInc  uint64
}

// injector validates cfg and returns the injector that arms its faults,
// or nil when cfg injects none.
func (cfg Config) injector() (*fault.Injector, error) {
	if cfg.BootTime < 0 {
		return nil, fmt.Errorf("sim: negative boot time %v", cfg.BootTime)
	}
	if cfg.Faults == nil {
		return nil, nil
	}
	inj, err := fault.NewInjector(*cfg.Faults)
	if err != nil || !cfg.Faults.Active() {
		return nil, err
	}
	return inj, nil
}

// Run executes the schedule into res, reusing the scratch's arenas. res is
// fully overwritten; its task arrays are reused when large enough.
func (sc *Scratch) Run(s *plan.Schedule, cfg Config, res *Result) error {
	inj, err := cfg.injector()
	if err != nil {
		return err
	}
	rec := cfg.Recorder
	var rebootS float64
	if inj != nil {
		rebootS = inj.Config().RebootS
	}
	wf := s.Workflow
	n := wf.Len()
	res.reset(n)

	// Rebuild the VM arena. Initial leases occupy the first len(s.VMs)
	// slots; replacement leases spawned by fault recovery are appended.
	// Entries are addressed by index only — never by pointers held across
	// a spawn — so growth is safe.
	if cap(sc.vms) < len(s.VMs) {
		sc.vms = make([]vmState, len(s.VMs))
	} else {
		sc.vms = sc.vms[:len(s.VMs)]
	}
	// Stale entries from a previous run's replacements sit in the capacity
	// region; drop their pointers so the scratch pins nothing.
	clear(sc.vms[len(s.VMs):cap(sc.vms)])
	total := 0
	for _, vm := range s.VMs {
		total += len(vm.Slots)
	}
	sc.qarena = grow32(sc.qarena, total)
	sc.vmOf = grow32(sc.vmOf, n)
	sc.pending = grow32(sc.pending, n)
	sc.attempt = grow32(sc.attempt, n)
	sc.tfails = grow32(sc.tfails, n)
	qa := sc.qarena[:0]
	for i, vm := range s.VMs {
		boot := cfg.BootTime
		if l := vm.Lease; l != nil {
			boot = l.ColdStartDelay() // market terms own the boot economics
		}
		base := len(qa)
		for _, slot := range vm.Slots {
			qa = append(qa, int32(slot.Task))
			sc.vmOf[slot.Task] = int32(i)
		}
		sc.vms[i] = vmState{vm: vm, boot: boot, inc: uint64(i), running: -1,
			queue: qa[base:len(qa):len(qa)]}
	}
	for id := 0; id < n; id++ {
		sc.pending[id] = int32(len(wf.Pred(dag.TaskID(id))))
		sc.attempt[id] = 0
		sc.tfails[id] = 0
	}

	sc.q.Reset()
	sc.q.Grow(n + len(s.VMs))
	r := runner{
		sc: sc, s: s, wf: wf, rec: rec, inj: inj, rebootS: rebootS,
		res: res, nextInc: uint64(len(s.VMs)),
		// crashCap bounds pathological crash storms (a replacement can
		// crash again); beyond it the run is declared failed rather than
		// looping.
		crashCap: 100*n + 100,
	}

	// Kick off: every VM tries its head at time 0 (entry tasks).
	if rec != nil {
		// Tasks with no pending inputs are ready before anything runs.
		for id := 0; id < n; id++ {
			if sc.pending[id] == 0 {
				rec.Record(obs.Event{Kind: obs.KindTaskQueued, T: 0, VM: -1, Task: int32(id)})
			}
		}
	}
	// Warm-pool leases with work to do anchor at t=0, before any task is
	// ready — that is what keeping a VM warm means: the lease (and its
	// bill, and its exposure to crashes) runs from the simulation start,
	// booting through its keepalive so the first task sees a warm machine.
	// Empty warm leases stay un-anchored here and bill through the
	// held-but-empty teardown path below, exactly like planned holds.
	for vi := 0; vi < len(s.VMs); vi++ {
		st := &sc.vms[vi]
		if !st.vm.Lease.IsWarm() || len(st.queue) == 0 {
			continue
		}
		st.started = true
		st.leaseAt = 0
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindVMLeaseStart, T: 0,
				VM: int32(vi), Task: -1, Value: st.boot, Label: r.leaseLabel(st)})
		}
		r.armFaults(vi, 0)
		if st.boot > 0 {
			st.busy = true
			sc.q.Push(st.boot, ev{kind: evBoot, vi: int32(vi), task: -1})
		} else {
			st.bootDone = true
		}
	}
	for vi := range sc.vms {
		r.tryStart(vi)
	}

	for !r.aborted {
		t, e, ok := sc.q.Pop()
		if !ok {
			break
		}
		if t < r.now-cloud.Eps {
			return fmt.Errorf("sim: time ran backwards: %v -> %v", r.now, t)
		}
		r.now = t
		res.Events++
		switch e.kind {
		case evKill:
			r.kill(int(e.vi), false)
		case evPreempt:
			r.kill(int(e.vi), true)
		case evArrive:
			r.arrive(int(e.task))
		case evResume:
			st := &sc.vms[e.vi]
			if st.dead {
				continue
			}
			st.busy = false
			r.tryStart(int(e.vi))
		case evBoot:
			st := &sc.vms[e.vi]
			if st.dead {
				continue
			}
			st.busy = false
			st.bootDone = true
			if rec != nil {
				rec.Record(obs.Event{Kind: obs.KindVMBootDone, T: r.now, VM: e.vi, Task: -1})
			}
			r.tryStart(int(e.vi))
		case evFail:
			r.failAttempt(int(e.vi), int(e.task), e.att, e.val)
		case evFinish:
			r.finish(int(e.vi), int(e.task), e.att, e.val)
		}
	}

	res.CompletedTasks = r.done
	res.Completed = r.done == n
	if r.done != n && !r.aborted {
		return fmt.Errorf("sim: deadlock: %d of %d tasks completed", r.done, n)
	}

	r.teardown()

	// Drop the schedule's pointers so an idle scratch keeps only bare
	// capacity alive (the arena itself is retained for the next run).
	for i := range sc.vms {
		sc.vms[i].vm = nil
		sc.vms[i].fb = nil
		sc.vms[i].queue = nil
	}
	return nil
}

func (r *runner) abortRun(reason string) {
	if !r.aborted {
		r.aborted = true
		r.res.FailReason = reason
	}
}

// leaseLabel is the lease-start event label: the instance type plus the
// lease's market suffix ("small+spot+sec"), empty suffix — and therefore
// the legacy byte-identical label — for nil lease terms. Only called
// under a rec != nil guard, so the disabled path never concatenates.
func (r *runner) leaseLabel(st *vmState) string {
	return st.vm.Type.String() + st.vm.Lease.LabelSuffix()
}

// spawn opens a replacement lease for a dead VM's unfinished tasks and
// returns its index. Fault recovery re-provisions through
// provision.Replace — same instance type, fresh billing, boot lag — or,
// for a preempted spot lease under the SpotFallback hedge, through
// provision.Fallback (same shape, on-demand market).
func (r *runner) spawn(model *plan.VM, tasks []int32, fallback bool) int {
	var vm *plan.VM
	if fallback {
		vm = provision.Fallback(model, plan.VMID(len(r.sc.vms)))
	} else {
		vm = provision.Replace(model, plan.VMID(len(r.sc.vms)))
	}
	st := vmState{vm: vm, queue: tasks, boot: r.rebootS, inc: r.nextInc, running: -1}
	if fallback {
		st.fb = model.Lease // remember the spot terms for premium accounting
		r.res.FallbackVMs++
	}
	r.nextInc++
	r.sc.vms = append(r.sc.vms, st)
	vi := len(r.sc.vms) - 1
	for _, t := range tasks {
		r.sc.vmOf[t] = int32(vi)
	}
	r.res.ReplacementVMs++
	return vi
}

// kill tears down a leased VM mid-flight — an injected crash or a spot
// preemption (the market's crash cause, counted apart): the running
// attempt is lost and the remaining queue is recovered per policy.
func (r *runner) kill(vi int, preempted bool) {
	st := &r.sc.vms[vi]
	if st.dead {
		return
	}
	if int(st.head) >= len(st.queue) && !st.busy {
		return // the lease already ended at lastEnd
	}
	st.dead = true
	st.deadAt = r.now
	kind := obs.KindVMCrash
	cause := "crashed"
	if preempted {
		r.res.SpotPreemptions++
		kind = obs.KindVMPreempt
		cause = "preempted"
	} else {
		r.res.VMCrashes++
	}
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: kind, T: r.now, VM: int32(vi), Task: -1})
	}
	tail := st.queue[st.head:]
	var remaining []int32
	if st.running >= 0 {
		burned := r.now - r.res.TaskStart[st.running]
		r.res.WastedSeconds += burned
		st.busySum += burned
		remaining = make([]int32, 0, len(tail)+1)
		remaining = append(remaining, st.running)
		remaining = append(remaining, tail...)
		st.running = -1
	} else {
		remaining = append([]int32(nil), tail...)
	}
	if r.res.VMCrashes+r.res.SpotPreemptions > r.crashCap {
		r.abortRun(fmt.Sprintf("crash storm: %d VM losses exceeded the recovery cap",
			r.res.VMCrashes+r.res.SpotPreemptions))
		return
	}
	if r.inj.Config().Recovery == fault.Fail {
		r.abortRun(fmt.Sprintf("VM %d %s at t=%.1fs (recovery=fail)", st.vm.ID, cause, r.now))
		return
	}
	if len(remaining) > 0 {
		// spawn may grow the vms slice; st is not touched past this point.
		r.tryStart(r.spawn(st.vm, remaining, preempted && st.vm.Lease.HasFallback()))
	}
}

// armFaults schedules the lease's loss draws (fault.Injector.Losses) from
// its anchor time: the crash stream for every lease, plus the preemption
// stream for spot leases. Both streams are keyed by the incarnation
// identity, so draws are order-independent and replayable.
func (r *runner) armFaults(vi int, at float64) {
	if r.inj == nil {
		return
	}
	st := &r.sc.vms[vi]
	crash, preempt := r.inj.Losses(st.inc, st.vm.Lease.IsSpot())
	if !math.IsInf(crash, 1) {
		r.sc.q.Push(at+crash, ev{kind: evKill, vi: int32(vi), task: -1})
	}
	if !math.IsInf(preempt, 1) {
		r.sc.q.Push(at+preempt, ev{kind: evPreempt, vi: int32(vi), task: -1})
	}
}

// arrive delivers one task input: the pending count drops, and the task's
// current VM (recovery may have moved it since the transfer was
// dispatched) gets a start attempt.
func (r *runner) arrive(task int) {
	r.sc.pending[task]--
	if r.sc.pending[task] == 0 && r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskQueued, T: r.now, VM: -1, Task: int32(task)})
	}
	r.tryStart(int(r.sc.vmOf[task]))
}

func (r *runner) finish(vi, task int, att int32, et float64) {
	st := &r.sc.vms[vi]
	if st.dead || r.sc.attempt[task] != att {
		return // the attempt was aborted by a crash
	}
	st.busy = false
	st.running = -1
	st.lastEnd = r.now
	st.busySum += et
	r.res.TaskEnd[task] = r.now
	r.done++
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskFinish, T: r.now,
			VM: int32(vi), Task: int32(task), Attempt: att})
	}
	// Propagate outputs to successors. SuccData is index-aligned with
	// Succ, replacing a map lookup per edge.
	sdata := r.wf.SuccData(dag.TaskID(task))
	for si, succ := range r.wf.Succ(dag.TaskID(task)) {
		succ := int32(succ)
		arrive := r.now
		if r.sc.vmOf[succ] != int32(vi) {
			data := sdata[si]
			arrive += r.s.Platform.TransferTime(data, st.vm.Type, r.sc.vms[r.sc.vmOf[succ]].vm.Type)
			r.res.Transfers++
			if r.rec != nil {
				r.rec.Record(obs.Event{Kind: obs.KindTransferStart, T: r.now,
					VM: int32(vi), Task: succ, Value: data})
				r.rec.Record(obs.Event{Kind: obs.KindTransferEnd, T: arrive,
					VM: int32(r.sc.vmOf[succ]), Task: succ, Value: data})
			}
		}
		r.sc.q.Push(arrive, ev{kind: evArrive, vi: -1, task: succ})
	}
	r.tryStart(vi)
}

// failAttempt handles a transient abort of one attempt.
func (r *runner) failAttempt(vi, task int, att int32, burned float64) {
	st := &r.sc.vms[vi]
	if st.dead || r.sc.attempt[task] != att {
		return
	}
	r.res.TaskFailures++
	r.res.WastedSeconds += burned
	st.busySum += burned
	st.lastEnd = r.now // the lease must cover the burned time
	st.running = -1
	r.sc.tfails[task]++
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskFail, T: r.now,
			VM: int32(vi), Task: int32(task), Attempt: att, Value: burned})
	}
	if r.inj.Config().Recovery == fault.Fail {
		r.abortRun(fmt.Sprintf("task %d failed at t=%.1fs (recovery=fail)", task, r.now))
		return
	}
	if int(r.sc.tfails[task]) > r.inj.Config().MaxRetries {
		r.abortRun(fmt.Sprintf("task %d exhausted %d retries", task, r.inj.Config().MaxRetries))
		return
	}
	switch r.inj.Config().Recovery {
	case fault.Retry:
		r.res.Retries++
		st.head-- // the task returns to the head of this VM's queue
		delay := r.inj.Backoff(int(r.sc.tfails[task]))
		if r.rec != nil {
			r.rec.Record(obs.Event{Kind: obs.KindTaskRetry, T: r.now,
				VM: int32(vi), Task: int32(task), Attempt: att, Value: delay})
		}
		// The VM is held (and billed) through the backoff window.
		r.sc.q.Push(r.now+delay, ev{kind: evResume, vi: int32(vi), task: -1})
	case fault.Resubmit:
		r.res.Resubmits++
		st.busy = false
		// spawn may grow the vms slice; st is not touched past this point.
		nvi := r.spawn(st.vm, []int32{int32(task)}, false)
		if r.rec != nil {
			r.rec.Record(obs.Event{Kind: obs.KindTaskResubmit, T: r.now,
				VM: int32(nvi), Task: int32(task), Attempt: att})
		}
		r.tryStart(vi) // the old VM proceeds with its next slot
		r.tryStart(nvi)
	}
}

func (r *runner) tryStart(vi int) {
	st := &r.sc.vms[vi]
	if st.dead || st.busy || int(st.head) >= len(st.queue) {
		return
	}
	task := int(st.queue[st.head])
	if r.sc.pending[task] > 0 {
		return
	}
	start := r.now
	if !st.started {
		// The VM is requested the moment its first task could start;
		// the lease (and billing) begins now, the task after boot.
		st.started = true
		st.leaseAt = start
		if r.rec != nil {
			r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStart, T: start,
				VM: int32(vi), Task: -1, Value: st.boot, Label: r.leaseLabel(st)})
		}
		r.armFaults(vi, start)
		if st.boot > 0 && !st.bootDone {
			st.busy = true
			r.sc.q.Push(start+st.boot, ev{kind: evBoot, vi: int32(vi), task: -1})
			return
		}
	}
	et := r.s.Platform.ExecTime(r.wf.Task(dag.TaskID(task)).Work, st.vm.Type)
	st.busy = true
	st.head++
	r.sc.attempt[task]++
	att := r.sc.attempt[task]
	st.running = int32(task)
	r.res.TaskStart[task] = start
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskStart, T: start, VM: int32(vi),
			Task: int32(task), Attempt: att, Value: et,
			Label: r.wf.Task(dag.TaskID(task)).Name})
	}
	if r.inj != nil {
		if fails, frac := r.inj.AttemptFails(task, int(att)); fails {
			r.sc.q.Push(start+frac*et, ev{kind: evFail, vi: int32(vi),
				task: int32(task), att: att, val: frac * et})
			return
		}
	}
	r.sc.q.Push(start+et, ev{kind: evFinish, vi: int32(vi),
		task: int32(task), att: att, val: et})
}

// teardown bills every lease from its observed span and emits the closing
// event stream (rollovers, stops) once billing detail is known.
func (r *runner) teardown() {
	res := r.res
	for vi := range r.sc.vms {
		st := &r.sc.vms[vi]
		// Held reservations only exist on the planned VMs; replacement
		// leases spawned by fault recovery never carry one.
		var held float64
		if vi < len(r.s.VMs) {
			held = r.s.VMs[vi].Held
		}
		if !st.started {
			if held <= 0 {
				continue // never leased: bills nothing
			}
			// A held-but-empty lease (plan.VM.Held with no slots) never
			// passes through tryStart, but it is a reservation paid from the
			// planned lease start all the same.
			st.started = true
			st.leaseAt = r.s.VMs[vi].LeaseStart()
			st.lastEnd = st.leaseAt
			if r.rec != nil {
				r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStart, T: st.leaseAt,
					VM: int32(vi), Task: -1, Label: r.leaseLabel(st)})
			}
		}
		end := st.lastEnd
		if st.dead {
			end = st.deadAt
		}
		if end > res.Makespan {
			res.Makespan = end
		}
		if st.vm.Prepaid {
			if r.rec != nil {
				r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: end, VM: int32(vi), Task: -1})
			}
			continue // private-cloud capacity: no bill, no idle accounting
		}
		if end < st.leaseAt {
			// An aborted run tore the lease down before anything completed;
			// a started lease still bills its minimum (one BTU).
			end = st.leaseAt
		}
		if !st.dead && st.leaseAt+held > end {
			// The planner holds the lease past its last slot: the hold is
			// billed (and idles) but does not move the makespan, which stays
			// task-defined exactly like plan.Schedule.Makespan. A crashed
			// lease bills only to the crash — the reservation died with it.
			end = st.leaseAt + held
		}
		span := end - st.leaseAt
		paid, cost := st.vm.Lease.Bill(st.leaseAt, span, st.vm.Type, st.vm.Region)
		res.RentalCost += cost
		res.IdleTime += paid - st.busySum
		if st.vm.Lease.IsWarm() {
			res.WarmIdleSeconds += paid - st.busySum
		}
		if st.fb != nil {
			// An on-demand fallback lease: the premium is what it billed
			// over the preempted spot terms for the same span.
			_, spot := st.fb.Bill(st.leaseAt, span, st.vm.Type, st.vm.Region)
			premium := cost - spot
			res.FallbackPremium += premium
			if r.rec != nil {
				r.rec.Record(obs.Event{Kind: obs.KindVMFallback, T: end,
					VM: int32(vi), Task: -1, Value: premium})
			}
		}
		if r.rec != nil {
			// Billing detail is only known now, so rollover markers and the
			// teardown are appended after the replay's causal events; the
			// exporters order by timestamp, not stream position. Rollovers
			// are only emitted for BTU-billed leases — per-minute and
			// per-second granularities would flood the stream with one
			// marker per unit; the oracle derives their paid units from the
			// span instead.
			if st.vm.Lease.BTUBilled() {
				for k, n := 1, cloud.BTUs(span); k < n; k++ {
					r.rec.Record(obs.Event{Kind: obs.KindVMBTURollover,
						T: st.leaseAt + float64(k)*cloud.BTU, VM: int32(vi), Task: -1})
				}
			}
			r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: end, VM: int32(vi), Task: -1, Value: cost})
		}
	}
}
