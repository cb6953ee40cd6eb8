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
// an obs.Recorder/Registry expose per-VM lease tracks for the Perfetto
// exporter and pool gauges for Prometheus. Every stochastic input is
// seed-derived, so a run is a pure function of its Config.
package online

import (
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
	// stops with an error at the first instance that is not.
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
	// Platform supplies execution times; nil selects the default.
	Platform *cloud.Platform
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
	// Metrics, when non-nil, registers pool-size/queue-depth gauges and
	// outcome counters (instances, SLA attainment, rentals, crashes,
	// preemptions, cost) labelled by scaler.
	Metrics *obs.Registry
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

// vm is one pool machine.
type vm struct {
	id        int
	rentAt    float64
	readyAt   float64 // boot completes; tasks cannot execute earlier
	busy      bool
	busySum   float64
	dead      bool
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

// instance is an arrived workflow instance still in flight.
type instance struct {
	wf        *dag.Workflow
	arrivedAt float64
	pending   []int // unfinished predecessor counts per task
	remaining int
}

// The event kinds: an arrival names its instance (event.i), every other
// kind the VM it concerns (event.m).
const (
	evArrive  uint8 = iota // instance i arrives
	evUnit                 // m reaches a billing-unit boundary
	evCrash                // m crashes
	evPreempt              // m is reclaimed by the spot market
	evFinish               // m's running task completes
)

// event is one scheduled harness event. It holds its VM by pointer, not
// by index into an arena: a retired VM must stay collectable, and the
// number of rentals grows with the stream.
type event struct {
	kind uint8
	i    int
	m    *vm
}

// runner is one online simulation in progress; its methods are the event
// handlers.
type runner struct {
	cfg       Config
	inj       *fault.Injector
	rng       *stats.RNG
	rec       obs.Recorder
	met       *poolMetrics
	res       *Result
	unit      float64
	perSecond bool

	q          eventq.Heap[event]
	now        float64
	instances  []*instance // by arrival index; nil once complete
	responses  []float64   // response times in completion order
	live       []*vm       // rented, not-yet-retired VMs in rent order
	busyCount  int
	ready      taskHeap
	queuedWork float64 // summed exec time of ready tasks
	nextSeq    int
	nextTaskID int32
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
	if err := checkConfig(&cfg); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:          cfg,
		rng:          stats.NewRNG(cfg.Seed),
		rec:          cfg.Recorder,
		res:          &Result{SLAMet: -1},
		unit:         cloud.BTU,
		instances:    make([]*instance, 0, cfg.Instances),
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
	if cfg.Metrics != nil {
		r.met = newPoolMetrics(cfg.Metrics, cfg.Scaler.Name())
	}
	if cfg.Dispatch == SJF {
		r.ready.less = sjfLess
	} else {
		r.ready.less = fifoLess
	}

	// Pre-schedule all arrivals (exponential gaps). Drawing every gap up
	// front keeps the arrival process independent of per-instance builder
	// draws, so two configs differing only in the builder see the same
	// arrival times.
	at := 0.0
	for i := 0; i < cfg.Instances; i++ {
		r.q.Push(at, event{kind: evArrive, i: i})
		at += expSample(r.rng, cfg.MeanInterarrival)
	}
	// Warm pool.
	for i := 0; i < cfg.MinVMs; i++ {
		r.rent()
	}

	for {
		t, e, ok := r.q.Pop()
		if !ok {
			break
		}
		if t < r.now-1e-9 {
			return nil, fmt.Errorf("online: time ran backwards (%v -> %v)", r.now, t)
		}
		r.now = t
		r.res.Events++
		switch e.kind {
		case evArrive:
			if err := r.arrive(e.i); err != nil {
				return nil, err
			}
		case evUnit:
			r.unitCheck(e.m)
		case evCrash:
			r.kill(e.m, false)
		case evPreempt:
			r.kill(e.m, true)
		case evFinish:
			r.finish(e.m)
		}
	}

	// Close out: retire every surviving VM, in rent order.
	for len(r.live) > 0 {
		r.retire(r.live[0])
	}
	if len(r.responses) != cfg.Instances {
		return nil, fmt.Errorf("online: %d of %d instances completed", len(r.responses), cfg.Instances)
	}
	r.res.ResponseTimes = stats.Summarize(r.responses)
	r.res.Responses = r.responses
	r.res.Makespan = r.now
	if r.met != nil {
		r.met.pool.Set(0)
		r.met.queue.Set(0)
	}
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
	r.arrivalsLeft--
	r.tasksLeft += wf.Len()
	inst := &instance{wf: wf, arrivedAt: r.now, remaining: wf.Len()}
	inst.pending = make([]int, wf.Len())
	totalWork := 0.0
	for id := 0; id < wf.Len(); id++ {
		inst.pending[id] = len(wf.Pred(dag.TaskID(id)))
		totalWork += wf.Task(dag.TaskID(id)).Work
	}
	instExec := r.cfg.Platform.ExecTime(totalWork, r.cfg.Type)
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
	r.instances = append(r.instances, inst)
	for _, e := range wf.Entries() {
		r.pushReady(readyTask{inst: len(r.instances) - 1, task: e, readyAt: r.now, seq: r.nextSeq,
			work: wf.Task(e).Work, id: r.nextTaskID, attempt: 1})
		r.nextSeq++
		r.nextTaskID++
	}
	r.dispatch()
	return nil
}

// unitCheck fires at m's billing-unit boundaries: release the VM if it
// idles with an empty queue (and the pool is above its floor, or the run
// has drained), otherwise commit to another unit.
func (r *runner) unitCheck(m *vm) {
	if m.dead {
		return
	}
	// After the last task of the last instance the warm-pool floor no
	// longer applies: everything drains so the simulation terminates.
	if !m.busy && r.ready.Len() == 0 && (len(r.live) > r.cfg.MinVMs || r.drained()) {
		r.retire(m)
		return
	}
	m.paidUnits++
	if r.rec != nil && m.lease.BTUBilled() {
		r.rec.Record(obs.Event{Kind: obs.KindVMBTURollover, T: r.now, VM: int32(m.id), Task: -1})
	}
	r.q.Push(m.rentAt+float64(m.paidUnits)*r.unit, event{kind: evUnit, m: m})
}

// drained reports that every instance has arrived and every task finished.
func (r *runner) drained() bool { return r.arrivalsLeft == 0 && r.tasksLeft == 0 }

// kill is a crash or spot preemption: the lease is billed for its held
// span, the running task (if any) requeues with a fresh attempt, and the
// scaler re-rents on demand.
func (r *runner) kill(m *vm, preempt bool) {
	if m.dead {
		return
	}
	m.dead = true
	r.removeLive(m)
	if m.busy {
		if r.now > m.curStart {
			m.busySum += r.now - m.curStart // partial execution was real work
		}
		r.busyCount--
		rt := m.cur
		rt.attempt++
		rt.readyAt = r.now
		rt.seq = r.nextSeq
		r.nextSeq++
		r.pushReady(rt)
	}
	cost := r.bill(m, r.now-m.rentAt)
	kind := obs.KindVMCrash
	if preempt {
		r.res.Preemptions++
		kind = obs.KindVMPreempt
		if r.met != nil {
			r.met.preempts.Inc()
		}
	} else {
		r.res.Crashes++
		if r.met != nil {
			r.met.crashes.Inc()
		}
	}
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: kind, T: r.now, VM: int32(m.id), Task: -1})
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: r.now, VM: int32(m.id), Task: -1, Value: cost})
	}
	r.dispatch()
}

// finish completes m's running task: successors whose last input it was
// become ready, and the freed VM takes the next ready task.
func (r *runner) finish(m *vm) {
	if m.dead {
		return // the lease died first; kill already requeued the task
	}
	rt := m.cur
	inst := r.instances[rt.inst]
	m.busy = false
	r.busyCount--
	m.busySum += m.curExec
	r.tasksLeft--
	inst.remaining--
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskFinish, T: r.now, VM: int32(m.id), Task: rt.id, Attempt: rt.attempt})
	}
	if inst.remaining == 0 {
		rtime := r.now - inst.arrivedAt
		r.responses = append(r.responses, rtime)
		if r.cfg.Deadline > 0 && rtime <= r.cfg.Deadline {
			r.res.SLAMet++
			if r.met != nil {
				r.met.slaMet.Inc()
			}
		}
		if r.met != nil {
			r.met.instances.Inc()
		}
		r.instances[rt.inst] = nil // let the sampled DAG be collected
	}
	for _, s := range inst.wf.Succ(rt.task) {
		inst.pending[s]--
		if inst.pending[s] == 0 {
			r.pushReady(readyTask{inst: rt.inst, task: s, readyAt: r.now, seq: r.nextSeq,
				work: inst.wf.Task(s).Work, id: r.nextTaskID, attempt: 1})
			r.nextSeq++
			r.nextTaskID++
		}
	}
	r.dispatch()
}

// startTask runs rt on the idle VM m and schedules its finish.
func (r *runner) startTask(m *vm, rt readyTask) {
	m.busy = true
	r.busyCount++
	st := r.now
	if m.readyAt > st {
		st = m.readyAt // a fresh VM cannot run work before its boot completes
	}
	et := r.cfg.Platform.ExecTime(rt.work, r.cfg.Type)
	m.cur, m.curStart, m.curExec = rt, st, et
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskStart, T: st, VM: int32(m.id), Task: rt.id,
			Attempt: rt.attempt, Value: et, Label: r.instances[rt.inst].wf.Task(rt.task).Name})
	}
	r.q.Push(st+et, event{kind: evFinish, m: m})
}

// dispatch sizes the pool to the scaler's target and hands ready tasks to
// idle VMs in rent order.
func (r *runner) dispatch() {
	cfg := &r.cfg
	if r.ready.Len() > 0 {
		want := cfg.Scaler.Desired(PoolState{
			Now:          r.now,
			Live:         len(r.live),
			Idle:         len(r.live) - r.busyCount,
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
		for len(r.live) < want {
			r.rent()
		}
		k := len(r.live) - r.busyCount
		if k > r.ready.Len() {
			k = r.ready.Len()
		}
		for _, m := range r.live {
			if k == 0 {
				break
			}
			if m.busy {
				continue
			}
			r.startTask(m, r.popReady())
			k--
		}
	}
	if r.perSecond && r.ready.Len() == 0 {
		// Per-second billing has no sunk unit to ride out: surplus idle
		// VMs release immediately (the degenerate billing boundary).
		drained := r.drained()
		for i := len(r.live) - 1; i >= 0 && (len(r.live) > cfg.MinVMs || drained); i-- {
			if m := r.live[i]; !m.busy {
				r.retire(m)
			}
		}
	}
	if r.met != nil {
		r.met.queue.Set(float64(r.ready.Len()))
		r.met.pool.Set(float64(len(r.live)))
	}
}

// rent opens a lease on a new VM and schedules its first billing-unit
// boundary and, under a fault model, its death.
func (r *runner) rent() {
	cfg := &r.cfg
	id := r.res.VMsRented
	m := &vm{id: id, rentAt: r.now, readyAt: r.now, paidUnits: 1}
	if cfg.Market != nil {
		m.lease = cfg.Market.Terms(id, false)
		delay := m.lease.ColdStartDelay()
		m.readyAt = r.now + delay
		r.res.ColdStartWaitS += delay
	}
	r.live = append(r.live, m)
	r.res.VMsRented++
	if len(r.live) > r.res.PeakVMs {
		r.res.PeakVMs = len(r.live)
	}
	if !r.perSecond {
		r.q.Push(m.rentAt+r.unit, event{kind: evUnit, m: m})
	}
	if r.inj != nil {
		killAt, kind := r.inj.CrashAfter(uint64(id)), evCrash
		if m.lease.IsSpot() {
			if at := r.inj.PreemptAfter(uint64(id)); at < killAt {
				killAt, kind = at, evPreempt
			}
		}
		if !math.IsInf(killAt, 1) {
			r.q.Push(m.rentAt+killAt, event{kind: kind, m: m})
		}
	}
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStart, T: m.rentAt, VM: int32(m.id), Task: -1,
			Value: m.readyAt - m.rentAt, Label: cfg.Type.String() + m.lease.LabelSuffix()})
		if m.readyAt > m.rentAt {
			r.rec.Record(obs.Event{Kind: obs.KindVMBootDone, T: m.readyAt, VM: int32(m.id), Task: -1})
		}
	}
	if r.met != nil {
		r.met.rented.Inc()
		r.met.pool.Set(float64(len(r.live)))
	}
}

// retire releases an idle VM: dead, out of the live set, billed for the
// units it committed to (actual span under per-second billing, where
// nothing is committed beyond the second in progress).
func (r *runner) retire(m *vm) {
	m.dead = true
	r.removeLive(m)
	span := r.now - m.rentAt
	if !r.perSecond {
		span = float64(m.paidUnits) * r.unit
	}
	cost := r.bill(m, span)
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindVMLeaseStop, T: r.now, VM: int32(m.id), Task: -1, Value: cost})
	}
}

// bill closes the books on m's lease held for span seconds and returns
// the lease cost.
func (r *runner) bill(m *vm, span float64) float64 {
	cost := m.lease.Cost(m.rentAt, span, r.cfg.Type, r.cfg.Region)
	r.res.TotalCost += cost
	r.res.PaidSeconds += m.lease.PaidSeconds(span)
	r.res.BusySeconds += m.busySum
	if r.met != nil {
		r.met.costs.Add(cost)
		r.met.pool.Set(float64(len(r.live)))
	}
	return cost
}

func (r *runner) pushReady(rt readyTask) {
	r.ready.Push(rt)
	r.queuedWork += r.cfg.Platform.ExecTime(rt.work, r.cfg.Type)
	if r.rec != nil {
		r.rec.Record(obs.Event{Kind: obs.KindTaskQueued, T: rt.readyAt, VM: -1, Task: rt.id, Attempt: rt.attempt})
	}
}

func (r *runner) popReady() readyTask {
	rt := r.ready.Pop()
	r.queuedWork -= r.cfg.Platform.ExecTime(rt.work, r.cfg.Type)
	if r.ready.Len() == 0 {
		r.queuedWork = 0 // shed float drift at every drain
	}
	return rt
}

// removeLive drops m from the live set, preserving rent order (the order
// dispatch scans for idle capacity, and the order the paper's pool demos
// billed in).
func (r *runner) removeLive(m *vm) {
	for i, v := range r.live {
		if v == m {
			copy(r.live[i:], r.live[i+1:])
			r.live[len(r.live)-1] = nil
			r.live = r.live[:len(r.live)-1]
			return
		}
	}
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
		if err := validateMix(cfg.Mix); err != nil {
			return err
		}
		cfg.Instance = mixBuilder(cfg.Mix, cfg.Seed)
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
	if cfg.Platform == nil {
		cfg.Platform = cloud.NewPlatform()
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
