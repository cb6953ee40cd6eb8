package online

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/stats"
	"repro/internal/workflows"
)

// soakInstances is the headline soak size: large enough that the old
// quadratic pool scans and per-completion queue sorts would blow any CI
// budget, small enough to finish in seconds with the heaps and the
// ordered idle set.
const soakInstances = 100_000

func soakConfig(t testing.TB) Config {
	t.Helper()
	order, err := ndwf.Named("order")
	if err != nil {
		t.Fatal(err)
	}
	montage, err := ndwf.Named("montage2")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		MeanInterarrival: 20,
		Instances:        soakInstances,
		Mix: []MixEntry{
			{Template: order, Weight: 3},
			{Template: montage, Weight: 1},
		},
		Type:   cloud.Small,
		Region: cloud.USEastVirginia,
		MaxVMs: 256,
		Market: &market.Model{
			Gran: market.PerSecond,
			Cold: market.ColdStart{Dist: "fixed", Mean: 45},
			Seed: 1,
		},
		Deadline: 7200,
		Seed:     42,
	}
}

// TestSoakDeterministicAndBounded is the acceptance soak: 100k instances
// from a heavy-tail mix, cold starts and per-second market billing
// active, run twice — bit-identical results, sub-quadratic wall time and
// bounded heap after the run (the drained queue and collected instances
// must give their memory back).
func TestSoakDeterministicAndBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	cfg := soakConfig(t)
	if raceEnabled {
		// Same seed and mix, a tenth of the stream: a race smoke, not a
		// complexity benchmark.
		cfg.Instances = soakInstances / 10
	}
	start := time.Now()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if a.ResponseTimes.N != cfg.Instances {
		t.Fatalf("completed %d of %d instances", a.ResponseTimes.N, cfg.Instances)
	}
	// Event count must stay linear in the task count: with ~10 tasks per
	// mean instance, 100 events per instance is an order of magnitude of
	// slack over arrivals + task completions + kill/billing events.
	if a.Events > cfg.Instances*100 {
		t.Errorf("event count %d is super-linear (%d instances)", a.Events, cfg.Instances)
	}
	// Generous wall bound: the old O(n^2) pool scan took minutes at this
	// size; the rewrite takes seconds. A factor-10 margin over observed
	// time keeps slow CI machines green while still catching a
	// complexity regression.
	if elapsed > 2*time.Minute {
		t.Errorf("soak took %v, want well under 2m", elapsed)
	}
	if a.ColdStartWaitS <= 0 || a.TotalCost <= 0 {
		t.Errorf("market inactive in soak: cold wait %v, cost %v", a.ColdStartWaitS, a.TotalCost)
	}

	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("soak is not deterministic:\nfirst:  %v\nsecond: %v", a.ResponseTimes, b.ResponseTimes)
	}

	// The drained run must not pin its transient state: after collection
	// the live heap should be far below the working set a leaky queue
	// (the old `queue = queue[k:]` re-slicing) would strand.
	a, b = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("post-soak HeapAlloc = %d MiB, want bounded", ms.HeapAlloc>>20)
	}
}

// TestSteadyStateAllocs guards the dispatch path's allocation rate: the
// per-instance cost must stay flat (no per-event sorting buffers, no
// retained queue heads).
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	cfg := soakConfig(t)
	cfg.Instances = 2000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The rate is ~3.6 allocs/instance (the same under -race): the lease
	// terms of ~2.3 rentals per instance, which per-second billing retires
	// as soon as they idle, the instance's name and the growth of slots
	// and their arrays. Every instance is sampled into the mix builder's
	// one workflow and copied into a reused slot; the fresh DAG per
	// instance that this replaced cost ~21. 4.5 leaves ~25% headroom while
	// still catching a per-instance DAG, anything super-linear or a
	// per-event buffer creeping into the dispatch loop.
	if perInstance := allocs / float64(cfg.Instances); perInstance > 4.5 {
		t.Errorf("%.1f allocations per instance, want steady-state rate under 4.5", perInstance)
	}
}

// TestEventsAllocateNothing takes the builder's cost out of the alloc
// guard: every instance is the same prebuilt DAG. This stream overloads
// the 256-VM pool, so all 2,000 instances are in flight at its peak and
// none finds a finished instance's slot to take over: each allocates the
// arrays its slot copies the DAG into, tasks and successors, 2
// allocations per instance. The lease terms market.Model.Terms allocates
// per rental add 0.13 (256 rentals), and amortized slice growth the rest
// of ~2.2. An event must allocate nothing: a closure per event would add
// ~25 more.
func TestEventsAllocateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	wf := workflows.PaperMontage()
	if err := wf.Freeze(); err != nil {
		t.Fatal(err)
	}
	cfg := soakConfig(t)
	cfg.Mix = nil
	cfg.Instance = func(int, *stats.RNG) *dag.Workflow { return wf }
	cfg.Instances = 2000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perInstance := allocs / float64(cfg.Instances); perInstance > 3 {
		t.Errorf("%.1f allocations per instance, want at most 3", perInstance)
	}
}

// TestSlotsBoundedByPeakInFlight drives the runner event by event over
// the soak configuration and a faulty per-BTU one. A finished instance's
// slot goes to the next arrival, so the runner holds no more instance
// slots than the most instances ever in flight at once, far fewer than
// the stream's length. A retired or killed VM's slot goes to the next
// rental, so there are exactly as many VM records as the peak pool. The
// arrivals are drawn from a cursor, not queued, so the event queue holds
// at most three events per live rental (its billing-unit boundary, its
// kill and its running task's finish) plus the stale events of dead
// rentals, within 4 × PeakVMs on both configurations. That last bound is
// not structural: a retired rental's kill event stays queued until its
// time, so crashes rare against the pool's churn raise the ratio (under
// per-second billing with crashes, 2,000 instances reached 10–32 ×
// PeakVMs).
func TestSlotsBoundedByPeakInFlight(t *testing.T) {
	soak := soakConfig(t)
	soak.Instances = 2000
	faulty := soak
	faulty.Market = nil
	fc, err := fault.Preset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 5
	faulty.Faults = &fc
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"soak", soak}, {"faulty per-BTU", faulty}} {
		cfg := tc.cfg
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peak, queued := 0, 0
		for {
			queued = max(queued, r.q.Len())
			more, err := r.next()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			inFlight := cfg.Instances - r.arrivalsLeft - len(r.responses)
			peak = max(peak, inFlight)
		}
		res, err := r.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.instances) > peak || peak >= cfg.Instances/4 {
			t.Errorf("%s: %d slots for a peak of %d instances in flight (of %d)", tc.name, len(r.instances), peak, cfg.Instances)
		}
		if len(r.free) != len(r.instances) {
			t.Errorf("%s: %d of %d slots free after the run", tc.name, len(r.free), len(r.instances))
		}
		if len(r.vms) != res.PeakVMs || len(r.freeVMs) != len(r.vms) {
			t.Errorf("%s: %d VM records (%d free after the run) for a peak pool of %d",
				tc.name, len(r.vms), len(r.freeVMs), res.PeakVMs)
		}
		if queued > 4*res.PeakVMs {
			t.Errorf("%s: %d events queued at once for a peak pool of %d", tc.name, queued, res.PeakVMs)
		}
		if cfg.Faults != nil && res.Crashes == 0 {
			t.Errorf("%s: no crashes", tc.name)
		}
	}
}

// TestArrivalWinsTies checks the cursor's tie rule: an arrival and a
// queued event at the same instant are handled arrival first, the order
// they had when arrivals were queued ahead of every other event. The
// queued event names a rental that never was, so it is stale: popped and
// counted, then skipped.
func TestArrivalWinsTies(t *testing.T) {
	cfg := baseConfig()
	cfg.MinVMs = 1
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.q.Push(r.nextArrival, event{kind: evCrash, vm: vmRef{slot: 0, id: 99}})
	if more, err := r.next(); !more || err != nil {
		t.Fatalf("next = %v, %v", more, err)
	}
	if r.arrivalsLeft != cfg.Instances-1 || r.q.Len() == 0 {
		t.Fatalf("the queued event went first: %d arrivals left, %d queued", r.arrivalsLeft, r.q.Len())
	}
	tm, e, _ := r.q.Peek()
	if tm != 0 || e.vm.id != 99 {
		t.Fatalf("head of the queue is %v at %v, want the stale crash at 0", e, tm)
	}
	if more, err := r.next(); !more || err != nil {
		t.Fatalf("next = %v, %v", more, err)
	}
	if r.res.Events != 2 || r.res.Crashes != 0 || r.liveVMs() != 1 {
		t.Errorf("stale crash: %d events, %d crashes, %d live VMs; want 2, 0, 1",
			r.res.Events, r.res.Crashes, r.liveVMs())
	}
}

// TestTaskHeapReleasesDrainedMemory is the direct regression test for the
// queue leak: push a large burst, drain it, and require the backing array
// to have been re-sized down — the old re-slicing kept the full burst
// reachable forever.
func TestTaskHeapReleasesDrainedMemory(t *testing.T) {
	h := taskHeap{less: fifoLess}
	const burst = 200_000
	for i := 0; i < burst; i++ {
		h.Push(readyTask{readyAt: float64(i % 97), seq: i, work: float64(i % 13)})
	}
	if cap(h.items) < burst {
		t.Fatalf("cap %d after %d pushes", cap(h.items), burst)
	}
	prev := readyTask{readyAt: -1}
	for h.Len() > 0 {
		rt := h.Pop()
		if rt.readyAt < prev.readyAt || (rt.readyAt == prev.readyAt && rt.seq < prev.seq) {
			t.Fatalf("heap order violated: %+v after %+v", rt, prev)
		}
		prev = rt
	}
	if cap(h.items) >= burst/4 {
		t.Errorf("drained heap still holds cap %d (burst %d); backing memory not released",
			cap(h.items), burst)
	}
	// And the drained heap keeps working.
	h.Push(readyTask{readyAt: 1, seq: 1})
	h.Push(readyTask{readyAt: 0, seq: 0})
	if got := h.Pop(); got.seq != 0 {
		t.Errorf("pop after drain = %+v, want seq 0", got)
	}
}

// TestSJFHeapMatchesSortOrder cross-checks the SJF key against a naive
// ordering: popping must yield tasks by work, ties by sequence — exactly
// the old stable-sort order.
func TestSJFHeapMatchesSortOrder(t *testing.T) {
	h := taskHeap{less: sjfLess}
	works := []float64{5, 1, 3, 1, 9, 0, 3}
	for i, w := range works {
		h.Push(readyTask{work: w, seq: i})
	}
	want := []int{5, 1, 3, 2, 6, 0, 4} // by (work, seq)
	for i, seq := range want {
		if got := h.Pop(); got.seq != seq {
			t.Fatalf("pop %d = seq %d, want %d", i, got.seq, seq)
		}
	}
}
