package validate

// This file is the differential half of the package: instead of checking a
// schedule against itself (validate.Schedule), it checks the planner
// against the simulator. The two compute the same quantities — task times,
// lease spans, BTU counts, cost, idle — by entirely different means
// (analytic forward planning vs discrete-event replay), so any
// disagreement beyond Eps is a modelling bug in one of them. A third,
// independent accounting (Account) re-derives billing and fault counters
// from the obs event stream alone, so even an error shared by planner and
// simulator bookkeeping is caught unless it is also reproduced in the
// event emission.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Lease is one lease incarnation re-derived from the event stream.
type Lease struct {
	Opened  bool    // a lease-start event was seen for this incarnation
	VM      int     // VM / incarnation index (obs.Event.VM)
	Type    string  // bare instance-type name from the lease-start label
	Start   float64 // lease-start time (billing origin)
	End     float64 // teardown time from the lease-stop event
	BTUs    int     // billed BTUs: observed rollovers + 1 (0 for prepaid and non-BTU leases)
	Paid    float64 // billed seconds under the lease's granularity (0 for prepaid)
	Cost    float64 // lease price from the lease-stop event (0 for prepaid)
	Busy    float64 // attempt seconds on the lease: completed + burned
	Crashed bool    // the lease was lost to an injected fault or preemption
	// Preempted narrows Crashed: the loss was a spot reclamation
	// (KindVMPreempt), not an injected crash.
	Preempted bool
	Prepaid   bool // zero-cost teardown: private-cloud capacity
	// Terms is the billing-relevant market terms parsed from the
	// lease-start label's "+"-tokens (granularity, spot, warm); nil for a
	// bare legacy label.
	Terms *market.Lease
}

// Accounting is a complete billing and fault ledger re-derived from an
// event stream, independent of both the planner's and the simulator's own
// bookkeeping.
type Accounting struct {
	// Leases is indexed by VM / incarnation index — the simulator hands
	// them out densely, so a slice replaces the map the ledger used to
	// fold into (the sweep's dominant allocation source). Entries whose
	// Opened flag is false saw no lease events (a planned VM that was
	// never rented); use Lease and NumLeases to skip them.
	Leases []Lease
	opened int // count of Opened entries

	RentalCost  float64 // summed lease costs
	IdleSeconds float64 // summed paid-but-unused time of billed leases
	BTUSeconds  float64 // summed paid time of billed leases

	CompletedTasks int // distinct tasks that finished
	Crashes        int
	Failures       int
	Retries        int
	Resubmits      int
	Transfers      int
	WastedSeconds  float64 // burned attempt time: transient aborts + crash-interrupted work
	UsefulSeconds  float64 // attempt time of completed tasks, prepaid leases included

	// Market counters, mirroring sim.Result's: spot reclamations, the
	// on-demand fallback leases they opened, the premium those leases
	// billed (from KindVMFallback events), and the paid-but-unused time
	// of warm-pool leases.
	Preempts        int
	FallbackVMs     int
	FallbackPremium float64
	WarmIdleSeconds float64
}

// Lease returns the ledger entry of one VM / incarnation index, or nil
// when the stream held no lease events for it.
func (a *Accounting) Lease(vi int) *Lease {
	if vi < 0 || vi >= len(a.Leases) || !a.Leases[vi].Opened {
		return nil
	}
	return &a.Leases[vi]
}

// NumLeases returns the number of lease incarnations the stream opened.
func (a *Accounting) NumLeases() int { return a.opened }

// runningAttempt tracks the open task attempt on one lease while folding
// the stream, so a crash can charge the interrupted work.
type runningAttempt struct {
	task  int32
	start float64
	open  bool
}

// labelTerms is one memoized ParseLabel result. Lease-start labels repeat
// across cells (a handful of type/terms combinations cover a whole sweep),
// so the Scratch parses each distinct label once and shares the read-only
// terms across ledger entries.
type labelTerms struct {
	typ   string
	terms *market.Lease
}

// Scratch holds the oracle's reusable state: the ledger arrays Account
// folds into, the event collector and simulator scratch PlanSim replays
// with, and the parsed-label memo. All returned pointers (the *Accounting,
// its lease entries) alias the scratch and are only valid until the next
// call. A Scratch is not safe for concurrent use; give each sweep worker
// its own. The zero value is ready to use.
type Scratch struct {
	acc      Accounting
	running  []runningAttempt
	finished []bool
	labels   map[string]labelTerms

	col    obs.Collector
	simsc  sim.Scratch
	simres sim.Result
}

// NewScratch returns an empty oracle scratch.
func NewScratch() *Scratch { return &Scratch{} }

// growLease resizes s to n entries, zeroing anything stale beyond the old
// length and reallocating only when capacity is short.
func growLease(s []Lease, n int) []Lease {
	if cap(s) < n {
		ns := make([]Lease, n, max(n, 2*cap(s)))
		copy(ns, s)
		return ns
	}
	tail := s[len(s):n]
	for i := range tail {
		tail[i] = Lease{}
	}
	return s[:n]
}

// parseLabel memoizes market.ParseLabel per distinct label string.
func (sc *Scratch) parseLabel(label string) (string, *market.Lease, error) {
	if lt, ok := sc.labels[label]; ok {
		return lt.typ, lt.terms, nil
	}
	typ, terms, err := market.ParseLabel(label)
	if err != nil {
		return typ, terms, err
	}
	if sc.labels == nil {
		sc.labels = make(map[string]labelTerms)
	}
	sc.labels[label] = labelTerms{typ: typ, terms: terms}
	return typ, terms, nil
}

// Account folds a simulator event stream into an independent Accounting.
// It only assumes what the stream format guarantees: per-VM ordering of
// lease-lifecycle events and causal ordering of task events. It returns an
// error when the stream itself is malformed (a stop without a start, two
// opens of one incarnation) — which would indicate an emission bug, a
// different failure class than a quantity mismatch.
func Account(events []obs.Event) (*Accounting, error) {
	return new(Scratch).Account(events)
}

// Account folds an event stream into the scratch's reused ledger arrays —
// the package-level Account without its per-call allocations. The returned
// Accounting aliases the scratch and is valid until the next call.
func (sc *Scratch) Account(events []obs.Event) (*Accounting, error) {
	acc := &sc.acc
	leases := acc.Leases[:0]
	*acc = Accounting{}
	running := sc.running[:0]
	finished := sc.finished[:0]
	defer func() {
		// Hand the (possibly reallocated) arrays back for the next fold.
		acc.Leases, sc.running, sc.finished = leases, running, finished
	}()
	// ensureVM grows the per-incarnation arrays to cover index vi.
	ensureVM := func(vi int) {
		if vi >= len(leases) {
			leases = growLease(leases, vi+1)
			if cap(running) < vi+1 {
				nr := make([]runningAttempt, vi+1, max(vi+1, 2*cap(running)))
				copy(nr, running)
				running = nr
			} else {
				tail := running[len(running) : vi+1]
				for i := range tail {
					tail[i] = runningAttempt{}
				}
				running = running[:vi+1]
			}
		}
	}
	for _, ev := range events {
		vi := int(ev.VM)
		if vi >= len(leases) {
			switch ev.Kind {
			case obs.KindVMLeaseStart, obs.KindVMBTURollover, obs.KindVMCrash, obs.KindVMPreempt,
				obs.KindVMFallback, obs.KindVMLeaseStop, obs.KindTaskStart, obs.KindTaskFinish,
				obs.KindTaskFail:
				ensureVM(vi)
			}
		}
		switch ev.Kind {
		case obs.KindVMLeaseStart:
			if vi < 0 {
				return nil, fmt.Errorf("oracle: lease start with VM index %d", vi)
			}
			if leases[vi].Opened {
				return nil, fmt.Errorf("oracle: lease %d opened twice", vi)
			}
			typ, terms, err := sc.parseLabel(ev.Label)
			if err != nil {
				return nil, fmt.Errorf("oracle: lease %d: %w", vi, err)
			}
			leases[vi] = Lease{Opened: true, VM: vi, Type: typ, Terms: terms, Start: ev.T, End: math.NaN()}
			acc.opened++
		case obs.KindVMBTURollover:
			l := leaseAt(leases, vi)
			if l == nil {
				return nil, fmt.Errorf("oracle: BTU rollover on unopened lease %d", vi)
			}
			l.BTUs++
		case obs.KindVMCrash, obs.KindVMPreempt:
			l := leaseAt(leases, vi)
			if l == nil {
				return nil, fmt.Errorf("oracle: crash on unopened lease %d", vi)
			}
			l.Crashed = true
			if ev.Kind == obs.KindVMPreempt {
				l.Preempted = true
				acc.Preempts++
			} else {
				acc.Crashes++
			}
			if r := &running[vi]; r.open {
				// The interrupted attempt burned work the bill still covers.
				burned := ev.T - r.start
				l.Busy += burned
				acc.WastedSeconds += burned
				r.open = false
			}
		case obs.KindVMFallback:
			if leaseAt(leases, vi) == nil {
				return nil, fmt.Errorf("oracle: fallback accounting on unopened lease %d", vi)
			}
			acc.FallbackVMs++
			acc.FallbackPremium += ev.Value
		case obs.KindVMLeaseStop:
			l := leaseAt(leases, vi)
			if l == nil {
				return nil, fmt.Errorf("oracle: lease %d stopped before starting", vi)
			}
			if !math.IsNaN(l.End) {
				return nil, fmt.Errorf("oracle: lease %d stopped twice", vi)
			}
			l.End = ev.T
			l.Cost = ev.Value
			l.Prepaid = ev.Value == 0 // a billed lease costs at least one BTU
		case obs.KindTaskStart:
			if vi >= 0 {
				running[vi] = runningAttempt{task: ev.Task, start: ev.T, open: true}
			}
		case obs.KindTaskFinish:
			l := leaseAt(leases, vi)
			if l == nil {
				return nil, fmt.Errorf("oracle: task %d finished on unopened lease %d", ev.Task, vi)
			}
			r := &running[vi]
			if !r.open || r.task != ev.Task {
				return nil, fmt.Errorf("oracle: task %d finished on lease %d without a matching start", ev.Task, vi)
			}
			l.Busy += ev.T - r.start
			acc.UsefulSeconds += ev.T - r.start
			r.open = false
			if int(ev.Task) >= len(finished) {
				if cap(finished) < int(ev.Task)+1 {
					nf := make([]bool, int(ev.Task)+1, max(int(ev.Task)+1, 2*cap(finished)))
					copy(nf, finished)
					finished = nf
				} else {
					tail := finished[len(finished) : int(ev.Task)+1]
					for i := range tail {
						tail[i] = false
					}
					finished = finished[:int(ev.Task)+1]
				}
			}
			if ev.Task >= 0 && finished[ev.Task] {
				return nil, fmt.Errorf("oracle: task %d finished twice", ev.Task)
			}
			if ev.Task >= 0 {
				finished[ev.Task] = true
			}
			acc.CompletedTasks++
		case obs.KindTaskFail:
			l := leaseAt(leases, vi)
			if l == nil {
				return nil, fmt.Errorf("oracle: task %d failed on unopened lease %d", ev.Task, vi)
			}
			l.Busy += ev.Value // the burned fraction travels on the event
			acc.WastedSeconds += ev.Value
			acc.Failures++
			if r := &running[vi]; r.task == ev.Task {
				r.open = false
			}
		case obs.KindTaskRetry:
			acc.Retries++
		case obs.KindTaskResubmit:
			acc.Resubmits++
		case obs.KindTransferEnd:
			acc.Transfers++
		}
	}
	for vi := range leases {
		l := &leases[vi]
		if !l.Opened {
			continue
		}
		if math.IsNaN(l.End) {
			return nil, fmt.Errorf("oracle: lease %d never stopped", vi)
		}
		if l.Prepaid {
			continue
		}
		var paid float64
		if l.Terms.BTUBilled() {
			if l.BTUs == 0 {
				l.BTUs = 1 // no rollover observed: the minimum whole BTU
			} else {
				l.BTUs++ // n rollovers delimit n+1 paid units
			}
			paid = float64(l.BTUs) * cloud.BTU
		} else {
			// Finer granularities emit no rollover markers (one per minute
			// or second would flood the stream); the paid units are
			// re-derived from the observed span through the same
			// eps-guarded rounding every other layer uses.
			if l.BTUs != 0 {
				return nil, fmt.Errorf("oracle: lease %d: BTU rollovers on a %s-billed lease",
					vi, l.Terms.Granularity())
			}
			unit := l.Terms.Granularity().Unit()
			paid = float64(cloud.Units(l.End-l.Start, unit)) * unit
		}
		l.Paid = paid
		acc.RentalCost += l.Cost
		acc.BTUSeconds += paid
		acc.IdleSeconds += paid - l.Busy
		if l.Terms.IsWarm() {
			acc.WarmIdleSeconds += paid - l.Busy
		}
	}
	return acc, nil
}

// leaseAt returns the open entry at vi in a fold-local lease slice, nil
// when out of range or never opened.
func leaseAt(leases []Lease, vi int) *Lease {
	if vi < 0 || vi >= len(leases) || !leases[vi].Opened {
		return nil
	}
	return &leases[vi]
}

// PlanSim is the fault-free differential oracle: it validates the static
// invariants, replays the schedule through the simulator with recording
// on, and asserts that planner, simulator and the event-stream accounting
// agree — task starts and ends, per-VM lease spans (held reservations
// included), BTU counts, lease costs, total cost and idle time — all
// within the shared Eps. It returns a descriptive error naming the first
// divergent quantity.
func PlanSim(s *plan.Schedule) error {
	sc := planSimPool.Get().(*Scratch)
	err := sc.PlanSim(s)
	planSimPool.Put(sc)
	return err
}

// planSimPool backs the package-level PlanSim so callers that don't manage
// a Scratch of their own (the service's debug path, tests) still reuse
// oracle state across calls. Nothing a PlanSim call returns aliases the
// scratch, so pooling is safe.
var planSimPool = sync.Pool{New: func() any { return NewScratch() }}

// PlanSim is the fault-free differential oracle against the scratch's
// reused collector, simulator arenas and ledger — the hot-loop form of the
// package-level PlanSim.
func (sc *Scratch) PlanSim(s *plan.Schedule) error {
	planned, err := schedule(s)
	if err != nil {
		return err
	}
	sc.col.Events = sc.col.Events[:0]
	res := &sc.simres
	if err := sc.simsc.Run(s, sim.Config{Recorder: &sc.col}, res); err != nil {
		return fmt.Errorf("oracle: replay failed: %w", err)
	}
	if !res.Completed {
		return fmt.Errorf("oracle: fault-free replay did not complete: %s", res.FailReason)
	}
	for id := range res.TaskStart {
		if !Close(res.TaskStart[id], s.Start[id]) {
			return fmt.Errorf("oracle: task %d start: simulated %v, planned %v",
				id, res.TaskStart[id], s.Start[id])
		}
		if !Close(res.TaskEnd[id], s.End[id]) {
			return fmt.Errorf("oracle: task %d end: simulated %v, planned %v",
				id, res.TaskEnd[id], s.End[id])
		}
	}
	if !Close(res.Makespan, planned.Makespan) {
		return fmt.Errorf("oracle: makespan: simulated %v, planned %v", res.Makespan, planned.Makespan)
	}
	if !Close(res.RentalCost, planned.Rental) {
		return fmt.Errorf("oracle: rental cost: simulated %v, planned %v", res.RentalCost, planned.Rental)
	}
	if !Close(res.IdleTime, planned.Idle) {
		return fmt.Errorf("oracle: idle time: simulated %v, planned %v", res.IdleTime, planned.Idle)
	}

	acc, err := sc.Account(sc.col.Events)
	if err != nil {
		return err
	}
	// Warm-pool idle is the third-checked standing cost of the WarmPool
	// hedge: the planner sums Idle over warm leases, the simulator
	// accumulates it at teardown, and the ledger re-derives it from
	// labeled lease events.
	var planWarm float64
	for vi, vm := range s.VMs {
		leased := len(vm.Slots) > 0 || vm.Held > 0
		l := acc.Lease(vi)
		if !leased {
			if l != nil {
				return fmt.Errorf("oracle: unleased VM %d has lease events", vi)
			}
			continue
		}
		if l == nil {
			return fmt.Errorf("oracle: leased VM %d emitted no lease events", vi)
		}
		b := vm.Bill()
		if !Close(l.Start, b.Start) {
			return fmt.Errorf("oracle: VM %d lease start: events %v, planned %v", vi, l.Start, b.Start)
		}
		if !Close(l.End, b.End) {
			return fmt.Errorf("oracle: VM %d lease end: events %v, planned %v", vi, l.End, b.End)
		}
		if l.Prepaid != vm.Prepaid {
			return fmt.Errorf("oracle: VM %d prepaid: events %v, planned %v", vi, l.Prepaid, vm.Prepaid)
		}
		if vm.Prepaid {
			continue
		}
		if l.Terms.Granularity() != vm.Lease.Granularity() ||
			l.Terms.IsSpot() != vm.Lease.IsSpot() ||
			l.Terms.IsWarm() != vm.Lease.IsWarm() {
			return fmt.Errorf("oracle: VM %d lease terms: events %s/%v/%v, planned %s/%v/%v",
				vi, l.Terms.Granularity(), l.Terms.IsSpot(), l.Terms.IsWarm(),
				vm.Lease.Granularity(), vm.Lease.IsSpot(), vm.Lease.IsWarm())
		}
		if vm.Lease.BTUBilled() {
			if want := cloud.BTUs(b.End - b.Start); l.BTUs != want {
				return fmt.Errorf("oracle: VM %d BTUs: events %d, planned %d", vi, l.BTUs, want)
			}
		}
		if !Close(l.Paid, b.Paid) {
			return fmt.Errorf("oracle: VM %d paid seconds: events %v, planned %v", vi, l.Paid, b.Paid)
		}
		if !Close(l.Cost, b.Cost) {
			return fmt.Errorf("oracle: VM %d cost: events %v, planned %v", vi, l.Cost, b.Cost)
		}
		if !Close(l.Busy, b.Busy) {
			return fmt.Errorf("oracle: VM %d busy: events %v, planned %v", vi, l.Busy, b.Busy)
		}
		if vm.Lease.IsWarm() {
			planWarm += b.Idle
		}
	}
	if acc.NumLeases() > len(s.VMs) {
		return fmt.Errorf("oracle: %d leases in events, %d VMs planned", acc.NumLeases(), len(s.VMs))
	}
	if !Close(acc.RentalCost, planned.Rental) {
		return fmt.Errorf("oracle: rental cost: events %v, planned %v", acc.RentalCost, planned.Rental)
	}
	if !Close(acc.IdleSeconds, planned.Idle) {
		return fmt.Errorf("oracle: idle time: events %v, planned %v", acc.IdleSeconds, planned.Idle)
	}
	if acc.CompletedTasks != s.Workflow.Len() {
		return fmt.Errorf("oracle: %d task finishes in events, %d tasks planned",
			acc.CompletedTasks, s.Workflow.Len())
	}
	if acc.Crashes != 0 || acc.Failures != 0 || acc.Preempts != 0 || acc.FallbackVMs != 0 {
		return fmt.Errorf("oracle: fault events (%d crashes, %d failures, %d preemptions, %d fallbacks) in a fault-free replay",
			acc.Crashes, acc.Failures, acc.Preempts, acc.FallbackVMs)
	}
	if !Close(res.WarmIdleSeconds, planWarm) {
		return fmt.Errorf("oracle: warm idle: simulated %v, planned %v", res.WarmIdleSeconds, planWarm)
	}
	if !Close(acc.WarmIdleSeconds, planWarm) {
		return fmt.Errorf("oracle: warm idle: events %v, planned %v", acc.WarmIdleSeconds, planWarm)
	}
	return nil
}

// FaultReplay is the fault-mode differential oracle: it replays the
// schedule under the given fault model, re-derives the full ledger from
// the event stream, and cross-checks every counter and accumulated
// quantity the Result reports — crashes, transient failures, retries,
// resubmissions, completed tasks, wasted seconds, rental cost and idle
// time. On success it returns both accountings so callers can derive
// further cross-checks (internal/fuzzcheck verifies
// metrics.ReliabilityOf against them; validate cannot import metrics).
func FaultReplay(s *plan.Schedule, fc *fault.Config) (*sim.Result, *Accounting, error) {
	if err := Schedule(s); err != nil {
		return nil, nil, err
	}
	col := &obs.Collector{}
	res, err := sim.Run(s, sim.Config{Faults: fc, Recorder: col})
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: faulty replay failed: %w", err)
	}
	acc, err := Account(col.Events)
	if err != nil {
		return res, nil, err
	}
	if err := CrossCheck(res, acc); err != nil {
		return res, acc, err
	}
	return res, acc, nil
}

// CrossCheck compares a replay Result against the event-derived ledger of
// the same run: every fault counter and accumulated quantity must match.
// FaultReplay calls it; callers that already hold a collector (the sweep
// driver's paranoid fault mode) can call it directly without a second
// replay.
func CrossCheck(res *sim.Result, acc *Accounting) error {
	counts := []struct {
		name      string
		got, want int
	}{
		{"crashes", acc.Crashes, res.VMCrashes},
		{"task failures", acc.Failures, res.TaskFailures},
		{"retries", acc.Retries, res.Retries},
		{"resubmits", acc.Resubmits, res.Resubmits},
		{"completed tasks", acc.CompletedTasks, res.CompletedTasks},
		{"transfers", acc.Transfers, res.Transfers},
		{"spot preemptions", acc.Preempts, res.SpotPreemptions},
		{"fallback leases", acc.FallbackVMs, res.FallbackVMs},
	}
	for _, c := range counts {
		if c.got != c.want {
			return fmt.Errorf("oracle: %s: events %d, result %d", c.name, c.got, c.want)
		}
	}
	if !Close(acc.WastedSeconds, res.WastedSeconds) {
		return fmt.Errorf("oracle: wasted seconds: events %v, result %v",
			acc.WastedSeconds, res.WastedSeconds)
	}
	if !Close(acc.RentalCost, res.RentalCost) {
		return fmt.Errorf("oracle: rental cost: events %v, result %v",
			acc.RentalCost, res.RentalCost)
	}
	if !Close(acc.IdleSeconds, res.IdleTime) {
		return fmt.Errorf("oracle: idle time: events %v, result %v",
			acc.IdleSeconds, res.IdleTime)
	}
	if !Close(acc.FallbackPremium, res.FallbackPremium) {
		return fmt.Errorf("oracle: fallback premium: events %v, result %v",
			acc.FallbackPremium, res.FallbackPremium)
	}
	if !Close(acc.WarmIdleSeconds, res.WarmIdleSeconds) {
		return fmt.Errorf("oracle: warm idle: events %v, result %v",
			acc.WarmIdleSeconds, res.WarmIdleSeconds)
	}
	return nil
}

// QuietReplay checks a faulty replay that sim.Screen proved quiet
// against what the screen promises: no crash, task failure or
// preemption, a completed run, and the plan's own makespan and rental
// cost, bit for bit — the values a caller takes in place of the replay.
func QuietReplay(s *plan.Schedule, res *sim.Result) error {
	planned := s.Totals()
	switch {
	case res.VMCrashes != 0 || res.TaskFailures != 0 || res.SpotPreemptions != 0:
		return fmt.Errorf("oracle: screened quiet, but the replay saw %d crashes, %d task failures, %d preemptions",
			res.VMCrashes, res.TaskFailures, res.SpotPreemptions)
	case !res.Completed:
		return fmt.Errorf("oracle: screened quiet, but the replay did not complete: %s", res.FailReason)
	case res.Makespan != planned.Makespan:
		return fmt.Errorf("oracle: screened quiet, but the replay's makespan %v is not the plan's %v",
			res.Makespan, planned.Makespan)
	case res.RentalCost != planned.Rental:
		return fmt.Errorf("oracle: screened quiet, but the replay's rental cost %v is not the plan's %v",
			res.RentalCost, planned.Rental)
	}
	return nil
}
