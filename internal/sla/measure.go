package sla

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
)

// Config parameterizes one Monte-Carlo measurement.
type Config struct {
	// Samples is the number of template instances to realize.
	Samples int
	// Seed is the root of the hash-derived per-instance seed stream; see
	// InstanceSeed. Same seed, same instances, bit for bit.
	Seed uint64
	// Workers bounds the scheduling goroutines; zero selects GOMAXPROCS.
	// The result is byte-identical at any worker count: instance i always
	// gets seed InstanceSeed(Seed, i) and writes into slot i, and the
	// aggregation is a sequential pass in index order.
	Workers int
	// Faults, when active, scores every sampled schedule by its replay
	// through the event simulator under an independent hash-derived fault
	// stream per instance; makespan and cost become the *observed* values
	// (the cost is the replay's rental cost) and an incomplete run counts
	// as a missed deadline. A replay that sim.Screen proves quiet is not
	// run: it would return the plan's own makespan and rental cost, bit
	// for bit, and the sample takes those.
	Faults *fault.Config
	// Paranoid cross-checks every fault-free sampled schedule against the
	// event simulator (validate.PlanSim), mirroring core.Paranoid. Under
	// Faults it also replays the samples the screen proved quiet and
	// fails on any whose replay saw a fault or differs from the plan in a
	// bit (validate.QuietReplay).
	Paranoid bool
}

// CILevel is the two-sided confidence level of every Result's MeetCI.
const CILevel = 0.95

// InstanceSeed returns the sampling seed of instance i: a hash-derived
// stream (fault.CellSeed) rather than seed+i, so adjacent measurements
// with different root seeds cannot overlap instance streams.
func InstanceSeed(seed uint64, i int) uint64 {
	return fault.CellSeed(seed, "sla", strconv.Itoa(i))
}

// Result is the empirical outcome distribution of one strategy (under one
// market preset) against a deadline.
type Result struct {
	Strategy string
	Market   string
	Deadline float64

	// N counts realized instances; Met counts those finishing by the
	// deadline (under faults: finishing at all, by the deadline).
	N   int
	Met int
	// MeetProbability is Met/N; MeetCI is its Wilson score interval at
	// CILevel. SLA decisions compare MeetProbability to the target; the
	// interval says how much the sample budget can be trusted.
	MeetProbability float64
	MeetCI          stats.CI

	// Makespan and Cost summarize the per-instance outcomes; Makespans
	// and Costs carry the raw per-instance values in instance order
	// (index i is instance i) for ECDFs and custom quantiles.
	Makespan  stats.Summary
	Cost      stats.Summary
	Makespans []float64
	Costs     []float64

	// Completed counts instances whose faulty replay finished all tasks;
	// without faults it equals N.
	Completed int

	// Bound is the analytic pre-pass result when Search computed one.
	Bound *Bound
}

// Measure samples cfg.Samples instances of the template, schedules each
// with the strategy, and returns the full empirical outcome distribution
// against the deadline. All sampling is seeded and worker-count
// deterministic; see Config. It is the one-candidate form of the pass
// Search runs over every surviving candidate at once, so a candidate's
// Result is the same either way.
func Measure(t ndwf.Template, alg sched.Algorithm, opts sched.Options,
	deadline float64, cfg Config) (Result, error) {
	if deadline <= 0 {
		return Result{}, fmt.Errorf("sla: non-positive deadline %v", deadline)
	}
	ct, err := t.Check()
	if err != nil {
		return Result{}, err
	}
	rs, err := measure(ct, []probe{{alg, opts}}, deadline, cfg)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// probe is one candidate of the Monte-Carlo pass: a strategy and the
// options (market included) it schedules every instance with.
type probe struct {
	alg  sched.Algorithm
	opts sched.Options
}

// outcomes are one probe's per-instance slots, index i for instance i.
type outcomes struct {
	makespans, costs []float64
	completed        []bool
}

// measure is the instance-major Monte-Carlo pass. Workers pull instance
// indices; each instance is sampled once, its fault seed derived once,
// and it is then scheduled and replayed under every probe, filling slot
// i of that probe's outcomes. Every probe's Result is aggregated
// sequentially in index order afterwards, so it is bit-identical to
// measuring the probe alone, at any worker count. A sampled DAG never
// outlives its instance.
func measure(t ndwf.Checked, probes []probe, deadline float64, cfg Config) ([]Result, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("sla: non-positive sample count %d", cfg.Samples)
	}
	n, workers := cfg.Samples, cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]outcomes, len(probes))
	for c := range out {
		out[c] = outcomes{make([]float64, n), make([]float64, n), make([]bool, n)}
	}

	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wk worker
			if cfg.Paranoid {
				wk.oracle = validate.NewScratch()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := wk.instance(t, probes, cfg, i, out); err != nil {
					failed.Store(true)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	rs := make([]Result, len(probes))
	for c, p := range probes {
		rs[c] = out[c].result(p.alg.Name(), deadline)
	}
	return rs, nil
}

// worker is one pass goroutine's reusable state: the simulator arenas
// and result every fault replay reuses, the fault config of the current
// instance, and the oracle scratch of a Paranoid pass.
type worker struct {
	sim    sim.Scratch
	res    sim.Result
	faults fault.Config
	oracle *validate.Scratch
}

// instance samples instance i once, then schedules it under every probe
// and, under faults, replays each schedule the screen cannot prove quiet
// (every schedule under Paranoid), writing slot i of each probe's
// outcomes.
func (wk *worker) instance(t ndwf.Checked, probes []probe, cfg Config, i int, out []outcomes) error {
	wf, err := t.Sample(InstanceSeed(cfg.Seed, i))
	if err != nil {
		return err
	}
	var (
		sc     sim.Config
		screen sim.Screen
	)
	if cfg.Faults.Active() {
		wk.faults = *cfg.Faults
		wk.faults.Seed = fault.CellSeed(cfg.Faults.Seed, "sla-fault", strconv.Itoa(i))
		sc.Faults = &wk.faults
		// The screen rejects an invalid fault config as the replay would,
		// so the error stands even where no replay runs.
		if screen, err = sim.NewScreen(sc, wf.Len()); err != nil {
			return fmt.Errorf("sla: fault replay on instance %d: %w", i, err)
		}
	}
	for c, p := range probes {
		s, err := p.alg.Schedule(wf, p.opts)
		if err != nil {
			return fmt.Errorf("sla: %s on instance %d: %w", p.alg.Name(), i, err)
		}
		if wk.oracle != nil {
			if err := wk.oracle.PlanSim(s); err != nil {
				return fmt.Errorf("sla: paranoid cross-check on instance %d: %w", i, err)
			}
		}
		o := &out[c]
		if sc.Faults == nil {
			t := s.Totals()
			o.makespans[i], o.costs[i], o.completed[i] = t.Makespan, t.Cost(), true
			continue
		}
		quiet := screen.Quiet(s)
		if quiet && !cfg.Paranoid {
			// The replay reports rental cost only, so a quiet sample
			// takes the rental, not the total cost.
			t := s.Totals()
			o.makespans[i], o.costs[i], o.completed[i] = t.Makespan, t.Rental, true
			continue
		}
		if err := wk.sim.Run(s, sc, &wk.res); err != nil {
			return fmt.Errorf("sla: fault replay on instance %d: %w", i, err)
		}
		if quiet {
			if err := validate.QuietReplay(s, &wk.res); err != nil {
				return fmt.Errorf("sla: paranoid screen check of %s on instance %d: %w", p.alg.Name(), i, err)
			}
		}
		o.makespans[i], o.costs[i], o.completed[i] = wk.res.Makespan, wk.res.RentalCost, wk.res.Completed
	}
	return nil
}

// result aggregates the outcomes in index order: the result does not
// depend on which worker computed which slot.
func (o outcomes) result(strategy string, deadline float64) Result {
	n := len(o.makespans)
	res := Result{
		Strategy:  strategy,
		Deadline:  deadline,
		N:         n,
		Makespans: o.makespans,
		Costs:     o.costs,
	}
	for i := 0; i < n; i++ {
		if o.completed[i] {
			res.Completed++
			if o.makespans[i] <= deadline {
				res.Met++
			}
		}
	}
	res.MeetProbability = float64(res.Met) / float64(n)
	res.MeetCI = stats.WilsonCI(res.Met, n, CILevel)
	res.Makespan = stats.Summarize(o.makespans)
	res.Cost = stats.Summarize(o.costs)
	return res
}
