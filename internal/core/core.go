// Package core is the experiment driver reproducing the paper's
// evaluation: it sweeps every workflow (Montage, CSTEM, MapReduce,
// Sequential) across the three execution-time scenarios (Pareto, best
// case, worst case) and all 19 strategies of the catalog, comparing each
// outcome against the HEFT + OneVMperTask-small baseline. The resulting
// grid backs Figures 4 and 5 and Tables III, IV and V (see
// internal/report for rendering, and the analysis methods in this package
// for the table semantics).
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sla"
	"repro/internal/validate"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// Config parameterizes a sweep. The zero value plus Fill() reproduces the
// paper's setup.
type Config struct {
	// Seed drives the Pareto workload draws.
	Seed uint64
	// Region prices the VMs; the paper's default is US East Virginia.
	Region cloud.Region
	// Platform is the network/pricing model; nil selects the default.
	Platform *cloud.Platform
	// Workflows maps display names to structural workflows; nil selects
	// the paper's four. WorkflowOrder fixes the presentation order.
	Workflows     map[string]*dag.Workflow
	WorkflowOrder []string
	// Scenarios lists the execution-time models to sweep; nil selects all
	// three.
	Scenarios []workload.Scenario
	// Strategies lists the algorithms; nil selects the 19-strategy catalog.
	Strategies []sched.Algorithm
	// Paranoid runs the full differential oracle on every schedule: static
	// invariants, a fault-free plan↔sim replay whose timings, lease spans,
	// BTU counts and costs must agree with the analytical plan, and an
	// independent re-derivation of the billing ledger from the event
	// stream. When Faults is also active, each faulty replay's counters
	// are additionally cross-checked against its own event stream. The
	// sweep fails on any disagreement.
	Paranoid bool
	// Faults, when active, additionally replays every schedule through
	// the discrete-event simulator under the given fault model and
	// attaches reliability metrics to each cell. Every cell derives an
	// independent fault seed from Faults.Seed and its own key, so results
	// are reproducible and independent of worker scheduling. A config
	// with zero rates changes nothing: the grid's points stay identical
	// to a fault-free sweep.
	Faults *fault.Config
	// Market, when non-nil, prices every rented VM — the baseline's
	// included, so percentages compare like with like — under the model's
	// lease terms: purchasing market, billing granularity, cold-start
	// delays, warm pool (see internal/market). Nil keeps the paper's
	// economics. Spot preemptions additionally require an active fault
	// model with SpotPreemptRate set.
	Market *market.Model
	// Workers bounds the number of goroutines evaluating grid cells
	// concurrently. Zero selects GOMAXPROCS; one forces serial execution.
	// Results are identical regardless of the worker count — every
	// stochastic input is derived from the per-cell key, not from
	// execution order.
	Workers int
	// Recorder, when non-nil, receives the simulated-time telemetry of
	// every cell: each schedule is replayed through the discrete-event
	// simulator (under Faults when active) with event recording on, and
	// the per-cell streams are delivered in grid order, each introduced
	// by a KindCellStart marker. The stream is byte-identical at any
	// worker count. The sweep's wall-clock execution timeline lands in
	// Sweep.CellSpans instead, keeping wall time out of the deterministic
	// stream.
	Recorder obs.Recorder
	// Progress, when non-nil, is called after each evaluated cell with
	// the running completion count and the grid size. It is called from
	// worker goroutines and must be safe for concurrent use and cheap.
	Progress func(done, total int)
	// Trace, when non-nil, receives one wall-clock span per grid cell
	// (named "cell <workflow>/<scenario>/<strategy>"), parented on
	// TraceSpan — how a service request's trace extends into the sweep.
	// Spans are appended from worker goroutines in completion order; span
	// identity stays deterministic, only timestamps and order carry
	// scheduling noise. Nil (the default) costs one branch per cell.
	Trace     *obs.Trace
	TraceSpan obs.SpanID
	// SLA, when non-nil, is a resolved deadline-constrained portfolio
	// search (an expconf "sla" block) for the driver to run after the
	// grid sweep. It does not affect the grid itself.
	SLA *sla.Job
	// Online, when non-nil, is a resolved continuous-traffic autoscaling
	// run (an expconf "online" block) for the driver to run after the
	// grid sweep. Like SLA, it does not affect the grid itself.
	Online *online.Config
}

// Fill populates nil fields with the paper's defaults and returns the
// config for chaining.
func (c Config) Fill() Config {
	if c.Platform == nil {
		c.Platform = cloud.NewPlatform()
	}
	if c.Workflows == nil {
		c.Workflows = workflows.Paper()
		c.WorkflowOrder = workflows.PaperNames()
	}
	if c.WorkflowOrder == nil {
		for name := range c.Workflows {
			c.WorkflowOrder = append(c.WorkflowOrder, name)
		}
		sort.Strings(c.WorkflowOrder)
	}
	if c.Scenarios == nil {
		c.Scenarios = workload.Scenarios()
	}
	if c.Strategies == nil {
		c.Strategies = sched.Catalog()
	}
	return c
}

// Key addresses one cell of the sweep grid.
type Key struct {
	Workflow string
	Scenario workload.Scenario
	Strategy string
}

// Result is one evaluated cell.
type Result struct {
	Key
	Point metrics.Point
	// Category is the Table III bucket of the point.
	Category metrics.Category
	// BaselineMakespan and BaselineCost anchor the percentages.
	BaselineMakespan float64
	BaselineCost     float64
	// Energy is the schedule's energy accounting under the default model
	// (the paper's closing energy-awareness remark quantified).
	Energy metrics.Energy
	// CoRentRecovered is the money a spot-style sub-lease of the idle time
	// would return at 30% of the on-demand rate (the paper's co-rent
	// suggestion).
	CoRentRecovered float64
	// Reliability is the faulty-replay outcome of the cell; nil when the
	// sweep ran without a fault model (see Config.Faults).
	Reliability *metrics.Reliability
}

// Sweep holds a completed experiment grid.
type Sweep struct {
	Config     Config
	Strategies []string
	// CellSpans is the wall-clock execution timeline of the sweep — one
	// span per evaluated cell, tagged with the worker that ran it. Only
	// populated when Config.Recorder was set; ordered by grid index.
	CellSpans []obs.WallSpan
	// results holds every cell in grid order: workflow-major, then
	// scenario, then strategy, as the config lists them.
	results []Result
}

// pane is one (workflow, scenario) pane of the grid: the realized
// workload every cell of the pane schedules, and its baseline.
type pane struct {
	wfName string
	sc     workload.Scenario
	scName string
	w      *dag.Workflow
	base   *plan.Schedule
	// baseTotals bills the baseline once for all the pane's cells.
	baseTotals plan.Totals
	err        error
	// ready is done once the pane is realized or has failed.
	ready sync.WaitGroup
}

// cellName names a cell of the pane "workflow/scenario/strategy".
func (p *pane) cellName(strategy string) string {
	return p.wfName + "/" + p.scName + "/" + strategy
}

// Run executes the sweep. With cfg.Paranoid set it cross-checks every
// schedule against the validator and the discrete-event simulator. Panes
// and cells are evaluated on one worker pool (see Config.Workers): each
// worker realizes panes until none are left, then evaluates cells. The
// result is bit-identical to a serial run because every pane and cell
// derives its inputs from its own key. On failure Run returns the error
// of the first failing pane in grid order, or else of the first failing
// cell.
func Run(cfg Config) (*Sweep, error) {
	cfg = cfg.Fill()
	if cfg.Faults != nil {
		if err := cfg.Faults.Fill().Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Market != nil {
		if err := cfg.Market.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	s := &Sweep{Config: cfg}
	for _, alg := range cfg.Strategies {
		s.Strategies = append(s.Strategies, alg.Name())
	}
	opts := sched.Options{Platform: cfg.Platform, Region: cfg.Region, Market: cfg.Market}

	// Phase 1 (on the pool): realize each pane's workload and baseline.
	panes := make([]pane, len(cfg.WorkflowOrder)*len(cfg.Scenarios))
	for i := range panes {
		p := &panes[i]
		p.wfName = cfg.WorkflowOrder[i/len(cfg.Scenarios)]
		p.sc = cfg.Scenarios[i%len(cfg.Scenarios)]
		p.scName = p.sc.String()
		p.ready.Add(1)
	}
	prepare := func(p *pane, oracle *validate.Scratch) error {
		structural, ok := cfg.Workflows[p.wfName]
		if !ok {
			return fmt.Errorf("core: workflow %q not in config", p.wfName)
		}
		// Apply returns a frozen workflow; from here on it is an immutable
		// snapshot every cell of the pane shares read-only.
		p.w = p.sc.Apply(structural, cfg.Seed)
		base, err := sched.Baseline().Schedule(p.w, opts)
		if err != nil {
			return fmt.Errorf("core: baseline on %s/%v: %w", p.wfName, p.sc, err)
		}
		if cfg.Paranoid {
			if err := oracle.PlanSim(base); err != nil {
				return fmt.Errorf("core: baseline on %s/%v: %w", p.wfName, p.sc, err)
			}
		}
		p.base, p.baseTotals = base, base.Totals()
		return nil
	}

	// Phase 2 (on the pool): one cell per (pane, strategy), pane-major.
	// Every cell of a pane shares the pane's frozen workflow snapshot
	// read-only — the schedulers never mutate a frozen workflow, and the
	// rank memo the catalog shares per pane is internally synchronized.
	nstrat := len(cfg.Strategies)
	ncells := len(panes) * nstrat
	results := make([]Result, ncells)
	errs := make([]error, ncells)
	// Per-cell event streams and wall spans, collected independently and
	// merged in grid order after the join so that the recorded stream is
	// identical at any worker count.
	var cellEvents [][]obs.Event
	var spans []obs.WallSpan
	if cfg.Recorder != nil {
		cellEvents = make([][]obs.Event, ncells)
		spans = make([]obs.WallSpan, ncells)
	}
	runStart := time.Now()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ncells {
		workers = ncells
	}
	if workers < 1 {
		workers = 1
	}
	var nextPane, nextCell int64 = -1, -1
	var done int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Per-worker scratch: the oracle's ledger and replay arenas, the
			// simulator's arenas and result, and an event collector — all
			// reset per cell, reallocated never. The batch shares the pane's
			// baseline and replay scratch across the strategies this worker
			// evaluates on the pane; cells are pane-major, so each worker sees
			// every pane as one contiguous run of cells.
			oracle := validate.NewScratch()
			var simSc sim.Scratch
			var simRes sim.Result
			var reCol obs.Collector
			var batch *sched.Batch
			for {
				i := int(atomic.AddInt64(&nextPane, 1))
				if i >= len(panes) {
					break
				}
				p := &panes[i]
				p.err = prepare(p, oracle)
				p.ready.Done()
			}
			for {
				i := int(atomic.AddInt64(&nextCell, 1))
				if i >= ncells {
					return
				}
				p := &panes[i/nstrat]
				p.ready.Wait()
				if p.err != nil {
					continue // Run reports the pane's error
				}
				alg, algName := cfg.Strategies[i%nstrat], s.Strategies[i%nstrat]
				if batch == nil || batch.Workflow() != p.w {
					batch = sched.NewBatchWithBaseline(p.w, opts, p.base)
				}
				var t0 time.Duration
				if cfg.Recorder != nil {
					t0 = time.Since(runStart)
				}
				// The cell's name is built only for the telemetry that shows it.
				var cellSpan obs.SpanHandle
				if cfg.Trace != nil {
					cellSpan = cfg.Trace.StartSpan("cell "+p.cellName(algName), cfg.TraceSpan)
				}
				sch, err := batch.Schedule(alg)
				if err != nil {
					errs[i] = fmt.Errorf("core: %s on %s/%v: %w", alg.Name(), p.wfName, p.sc, err)
					cellSpan.End()
					continue
				}
				if cfg.Paranoid {
					if err := oracle.PlanSim(sch); err != nil {
						errs[i] = fmt.Errorf("core: %s on %s/%v: %w", alg.Name(), p.wfName, p.sc, err)
						cellSpan.End()
						continue
					}
				}
				point := metrics.CompareTotals(algName, sch.Totals(), p.baseTotals)
				recovered, _ := metrics.CoRent(sch, coRentRate)
				results[i] = Result{
					Key:              Key{Workflow: p.wfName, Scenario: p.sc, Strategy: algName},
					Point:            point,
					Category:         metrics.Classify(point),
					BaselineMakespan: p.baseTotals.Makespan,
					BaselineCost:     p.baseTotals.Cost(),
					Energy:           metrics.DefaultEnergyModel().Energy(sch),
					CoRentRecovered:  recovered,
				}
				// A cell replays through the simulator when the sweep runs
				// under a fault model (for reliability metrics), when
				// telemetry is requested, or both in one pass.
				if cfg.Faults.Active() || cfg.Recorder != nil {
					sc := sim.Config{}
					if cfg.Faults.Active() {
						// Each cell replays under its own derived fault seed:
						// deterministic, and independent of the order workers
						// pick up cells.
						fc := *cfg.Faults
						fc.Seed = fault.CellSeed(fc.Seed, p.wfName, p.scName, algName)
						sc.Faults = &fc
					}
					var col *obs.Collector
					if cfg.Recorder != nil {
						// The cell's events escape into the grid-order merge,
						// so the recorder path needs a fresh collector.
						col = &obs.Collector{}
						sc.Recorder = col
					} else if cfg.Paranoid && sc.Faults != nil {
						// Paranoid fault mode needs the event stream even when
						// no recorder was requested: the oracle re-derives the
						// ledger from it. Nothing escapes, so the worker's
						// collector is reused.
						reCol.Events = reCol.Events[:0]
						col = &reCol
						sc.Recorder = col
					}
					fres := &simRes
					if err := simSc.Run(sch, sc, fres); err != nil {
						errs[i] = fmt.Errorf("core: replay of %s on %s/%v: %w",
							alg.Name(), p.wfName, p.sc, err)
						cellSpan.End()
						continue
					}
					if cfg.Paranoid && sc.Faults != nil {
						// Fault-mode oracle: the Result's counters must agree
						// with an accounting derived from the events alone.
						acc, err := oracle.Account(col.Events)
						if err == nil {
							err = validate.CrossCheck(fres, acc)
						}
						if err != nil {
							errs[i] = fmt.Errorf("core: fault oracle on %s of %s/%v: %w",
								alg.Name(), p.wfName, p.sc, err)
							cellSpan.End()
							continue
						}
					}
					if cfg.Faults.Active() {
						rel := metrics.ReliabilityOf(sch, fres)
						results[i].Reliability = &rel
					}
					if cfg.Recorder != nil {
						cellEvents[i] = col.Events
					}
				}
				if cfg.Recorder != nil {
					spans[i] = obs.WallSpan{
						Name:   p.cellName(algName),
						Worker: wkr,
						Start:  t0,
						End:    time.Since(runStart),
					}
				}
				cellSpan.End()
				if cfg.Progress != nil {
					cfg.Progress(int(atomic.AddInt64(&done, 1)), ncells)
				}
			}
		}(wkr)
	}
	wg.Wait()

	for i := range panes {
		if err := panes[i].err; err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.results = results
	// Replay the per-cell streams into the recorder in grid order, each
	// behind its marker: the stream's bytes depend only on the grid and the
	// seeds, never on worker interleaving.
	if cfg.Recorder != nil {
		for i, events := range cellEvents {
			cfg.Recorder.Record(obs.Event{
				Kind: obs.KindCellStart, VM: -1, Task: -1,
				Label: panes[i/nstrat].cellName(s.Strategies[i%nstrat]),
			})
			for _, ev := range events {
				cfg.Recorder.Record(ev)
			}
		}
		s.CellSpans = spans
	}
	return s, nil
}

// coRentRate is the assumed spot-style clearing rate for sub-leasing idle
// VM time, as a fraction of the on-demand price.
const coRentRate = 0.3

// Get returns one cell. When an axis of the config lists a name twice,
// the last of its cells in grid order answers.
func (s *Sweep) Get(wf string, sc workload.Scenario, strategy string) (Result, bool) {
	i := s.paneIndex(wf, sc)
	k := lastIndex(s.Strategies, strategy)
	if i < 0 || k < 0 {
		return Result{}, false
	}
	return s.results[i*len(s.Strategies)+k], true
}

// paneIndex returns the grid index of a workflow/scenario pane, -1 when the
// sweep has none.
func (s *Sweep) paneIndex(wf string, sc workload.Scenario) int {
	w := lastIndex(s.Config.WorkflowOrder, wf)
	c := lastIndex(s.Config.Scenarios, sc)
	if w < 0 || c < 0 {
		return -1
	}
	return w*len(s.Config.Scenarios) + c
}

// lastIndex returns the index of the last occurrence of v in xs, or -1.
func lastIndex[T comparable](xs []T, v T) int {
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i] == v {
			return i
		}
	}
	return -1
}

// distinct counts the distinct values of xs.
func distinct[T comparable](xs []T) int {
	n := 0
	for i, x := range xs {
		if lastIndex(xs, x) == i {
			n++
		}
	}
	return n
}

// MustGet returns one cell and panics when it is absent — for analysis
// code that iterates the sweep's own axes.
func (s *Sweep) MustGet(wf string, sc workload.Scenario, strategy string) Result {
	r, ok := s.Get(wf, sc, strategy)
	if !ok {
		panic(fmt.Sprintf("core: missing cell %s/%v/%s", wf, sc, strategy))
	}
	return r
}

// Points returns the cells of one workflow/scenario pane in catalog order —
// one pane of Fig. 4 (gain/loss) or Fig. 5 (idle).
func (s *Sweep) Points(wf string, sc workload.Scenario) []Result {
	i := s.paneIndex(wf, sc)
	if i < 0 {
		return []Result{}
	}
	cells := s.results[i*len(s.Strategies) : (i+1)*len(s.Strategies)]
	out := make([]Result, len(s.Strategies))
	for k, name := range s.Strategies {
		out[k] = cells[lastIndex(s.Strategies, name)]
	}
	return out
}

// Workflows returns the workflow axis in presentation order.
func (s *Sweep) Workflows() []string { return s.Config.WorkflowOrder }

// Scenarios returns the scenario axis.
func (s *Sweep) Scenarios() []workload.Scenario { return s.Config.Scenarios }

// Len returns the number of distinct cells: a name an axis lists twice
// addresses one cell.
func (s *Sweep) Len() int {
	return distinct(s.Config.WorkflowOrder) * distinct(s.Config.Scenarios) * distinct(s.Strategies)
}
