// Package fuzzcheck is the randomized driver of the differential
// correctness harness: it generates seeded random DAGs and workload
// scenarios, sweeps every catalog strategy (plus synthetic strategies
// the catalog cannot produce: cross-region placement, held-lease tails,
// per-second spot billing, warm-pool minutes — and the hedging
// provisioners) through the plan↔sim oracles of internal/validate, and
// shrinks failing cases to minimal reproducers.
//
// A Case is a flat tuple of primitives so that it round-trips through the
// native Go fuzzing corpus format: the committed files under
// testdata/fuzz/ are simultaneously seeds for `go test -fuzz` and a
// deterministic regression suite (`go test` replays every corpus file).
// cmd/wffuzz drives the same generator from the command line for longer
// sweeps and emits shrunk corpus entries for any divergence it finds.
package fuzzcheck

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
	"repro/internal/workload"
)

// The synthetic strategies appended after the scheduling catalog. They
// exist to reach plan states no catalog algorithm produces: leases spread
// across billing regions (cross-region transfer pricing) and held
// reservations (plan.VM.Held).
const (
	// StrategyXRegion places tasks one VM per task, round-robin across all
	// seven regions of Table II.
	StrategyXRegion = "xregion"
	// StrategyHeldTail runs the baseline, then holds the first lease past
	// its last slot and appends one held-but-empty reservation.
	StrategyHeldTail = "heldtail"
	// StrategySpotSec places tasks one VM per task under per-second spot
	// billing with a seeded price trace and uniform cold starts — the
	// finest billing granularity composed with trace-dependent pricing.
	StrategySpotSec = "spotsec"
	// StrategyWarmMin runs the baseline under per-minute billing with a
	// three-VM warm pool and a long fixed cold start, so warm anchoring,
	// warm-idle accounting and minute rounding are all exercised at once.
	StrategyWarmMin = "warmmin"
)

// Strategies lists every strategy name a Case can select: the scheduling
// catalog in order, then the synthetic strategies, then the market
// synthetics and the hedging provisioners. The order is load-bearing —
// corpus entries address strategies by index, so new names only append.
func Strategies() []string {
	cat := sched.Catalog()
	hedges := sched.Hedges()
	out := make([]string, 0, len(cat)+4+len(hedges))
	for _, alg := range cat {
		out = append(out, alg.Name())
	}
	out = append(out, StrategyXRegion, StrategyHeldTail, StrategySpotSec, StrategyWarmMin)
	for _, alg := range hedges {
		out = append(out, alg.Name())
	}
	return out
}

// marketStrategies lists the Strategies() indexes that rent under market
// lease terms — the subset RandomMarket draws from.
func marketStrategies() []int {
	names := Strategies()
	var out []int
	for i, n := range names {
		if n == StrategySpotSec || n == StrategyWarmMin {
			out = append(out, i)
		}
	}
	for _, alg := range sched.Hedges() {
		for i, n := range names {
			if n == alg.Name() {
				out = append(out, i)
			}
		}
	}
	return out
}

// scenarios is the scenario pool a Case indexes into. Order is
// load-bearing for the corpus, like Strategies.
func scenarios() []workload.Scenario {
	return []workload.Scenario{workload.AsIs, workload.Pareto, workload.BestCase,
		workload.WorstCase, workload.DataHeavy}
}

// Case is one fuzz input: a recipe for a workflow, a scenario, a strategy
// and an optional fault model. All fields are primitives so the case
// round-trips through the Go fuzz corpus encoding (see Encode). Arbitrary
// values are legal — Normalize folds anything into the valid domain, so
// the fuzzer can mutate blindly.
type Case struct {
	Tasks     int    // DAG size cap (normalized into [1, 40])
	Seed      uint64 // drives DAG shape, work, data and the scenario draw
	EdgePct   int    // edge probability in percent (normalized into [0, 60])
	ZeroWork  bool   // force every third task to zero work
	BTUWork   bool   // quantize work to BTU/k divisors (billing boundaries)
	Scenario  int    // index into scenarios(), modulo its length
	Strategy  int    // index into Strategies(), modulo its length
	Fault     int    // index into fault.PresetNames(), modulo; "none" = fault-free
	FaultSeed uint64
}

// mod folds v into [0, n) with a non-negative result for negative v.
func mod(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// Normalize folds arbitrary field values into the valid domain and
// returns the canonical case. It is idempotent.
func (c Case) Normalize() Case {
	c.Tasks = 1 + mod(c.Tasks-1, 40)
	c.EdgePct = mod(c.EdgePct, 61)
	c.Scenario = mod(c.Scenario, len(scenarios()))
	c.Strategy = mod(c.Strategy, len(Strategies()))
	c.Fault = mod(c.Fault, len(fault.PresetNames()))
	return c
}

// String renders the case compactly for failure reports.
func (c Case) String() string {
	c = c.Normalize()
	return fmt.Sprintf("case{tasks: %d, seed: %d, edges: %d%%, zero: %v, btu: %v, scenario: %v, strategy: %s, fault: %s/%d}",
		c.Tasks, c.Seed, c.EdgePct, c.ZeroWork, c.BTUWork,
		scenarios()[c.Scenario], Strategies()[c.Strategy], c.FaultName(), c.FaultSeed)
}

// FaultName returns the fault preset the case selects ("none" for the
// fault-free oracle).
func (c Case) FaultName() string {
	c = c.Normalize()
	return fault.PresetNames()[c.Fault]
}

// Workflow builds the case's DAG: a seeded random graph with the case's
// mutations applied. Deterministic: equal cases yield equal workflows.
func (c Case) Workflow() *dag.Workflow {
	c = c.Normalize()
	cfg := dagtest.DefaultConfig()
	cfg.MinTasks, cfg.MaxTasks = 1, c.Tasks
	cfg.EdgeProb = float64(c.EdgePct) / 100
	w := dagtest.Random(c.Seed, cfg)
	if c.ZeroWork {
		w.SetWork(func(t dag.Task) float64 {
			if int(t.ID)%3 == 0 {
				return 0
			}
			return t.Work
		})
	}
	if c.BTUWork {
		// Work quantized to exact BTU divisors: k tasks of BTU/k seconds
		// sum to a float that lands on (or one ulp around) a billing
		// boundary — the inputs that historically over-billed one BTU.
		w.SetWork(func(t dag.Task) float64 {
			return cloud.BTU / float64(1+int(t.ID)%5)
		})
	}
	return w
}

// schedule builds the case's schedule: scenario applied, strategy run.
func (c Case) schedule() (*plan.Schedule, error) {
	c = c.Normalize()
	w := scenarios()[c.Scenario].Apply(c.Workflow(), c.Seed)
	name := Strategies()[c.Strategy]
	switch name {
	case StrategyXRegion:
		return xregion(w), nil
	case StrategyHeldTail:
		return heldtail(w, c.Seed)
	case StrategySpotSec:
		return spotsec(w, c.Seed), nil
	case StrategyWarmMin:
		return warmmin(w, c.Seed)
	}
	alg, err := sched.ByName(name)
	if err != nil {
		return nil, err
	}
	return alg.Schedule(w, sched.DefaultOptions())
}

// xregion schedules one VM per task, cycling through every region of
// Table II — the federation case with inter-region transfer pricing that
// no catalog strategy exercises.
func xregion(w *dag.Workflow) *plan.Schedule {
	b := plan.NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	regions := cloud.Regions()
	types := []cloud.InstanceType{cloud.Small, cloud.Medium, cloud.Large}
	for i, t := range w.TopoOrder() {
		vm := b.NewVMIn(types[i%len(types)], regions[i%len(regions)])
		b.PlaceOn(t, vm)
	}
	return b.Done()
}

// heldtail runs the baseline and then mutates the plan the way a
// speculative provisioner would: the first lease is held one BTU past its
// last slot and one held-but-empty reservation is appended.
func heldtail(w *dag.Workflow, seed uint64) (*plan.Schedule, error) {
	s, err := sched.Baseline().Schedule(w, sched.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed)
	if len(s.VMs) > 0 {
		vm := s.VMs[r.Intn(len(s.VMs))]
		vm.Held = vm.Span() + cloud.BTU*r.Range(0.1, 1.5)
	}
	s.VMs = append(s.VMs, &plan.VM{
		ID: plan.VMID(len(s.VMs)), Type: cloud.Small,
		Region: cloud.USEastVirginia, Held: r.Range(1, 2*cloud.BTU),
	})
	return s, nil
}

// spotMarket returns the seeded spot/per-second model spotsec rents
// under: a volatile synthetic price trace and uniform cold starts, all
// derived from the case seed so equal cases bill identically.
func spotMarket(seed uint64) *market.Model {
	return &market.Model{
		Market:       market.Spot,
		Gran:         market.PerSecond,
		SpotDiscount: 0.25,
		Trace:        market.Synthetic(seed, 48, 900, 0.25),
		Cold:         market.ColdStart{Dist: "uniform", Min: 10, Max: 90},
		Seed:         seed,
	}
}

// spotsec schedules one VM per task under per-second spot billing — the
// market analogue of xregion: a synthetic placement no catalog strategy
// produces, reaching trace-priced leases with per-task cold starts.
func spotsec(w *dag.Workflow, seed uint64) *plan.Schedule {
	b := plan.NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	b.SetMarket(spotMarket(seed))
	types := []cloud.InstanceType{cloud.Small, cloud.Medium, cloud.Large}
	for i, t := range w.TopoOrder() {
		vm := b.NewVMIn(types[i%len(types)], cloud.USEastVirginia)
		b.PlaceOn(t, vm)
	}
	return b.Done()
}

// warmmin runs the baseline under per-minute billing with a three-VM warm
// pool and a long fixed cold start, so some leases anchor warm at t=0 and
// the rest pay the cold start on their first slot.
func warmmin(w *dag.Workflow, seed uint64) (*plan.Schedule, error) {
	opts := sched.DefaultOptions()
	opts.Market = &market.Model{
		Gran:     market.PerMinute,
		Cold:     market.ColdStart{Dist: "fixed", Mean: 120},
		WarmPool: 3,
		Seed:     seed,
	}
	return sched.Baseline().Schedule(w, opts)
}

// Run executes the case through the differential harness and returns the
// first divergence, or nil when planner, simulator and event-stream
// accounting agree. Fault-free cases run the PlanSim oracle; faulty cases
// run FaultReplay, hold every replay sim.Screen proves quiet to the plan
// (validate.QuietReplay), and cross-check metrics.ReliabilityOf against
// the event-derived ledger.
func (c Case) Run() error {
	c = c.Normalize()
	s, err := c.schedule()
	if err != nil {
		return fmt.Errorf("fuzzcheck: %v: schedule: %w", c, err)
	}
	if c.FaultName() == "none" {
		if err := validate.PlanSim(s); err != nil {
			return fmt.Errorf("fuzzcheck: %v: %w", c, err)
		}
		return nil
	}
	fc, err := fault.Preset(c.FaultName())
	if err != nil {
		return err
	}
	fc.Seed = c.FaultSeed
	res, acc, err := validate.FaultReplay(s, &fc)
	if err != nil {
		return fmt.Errorf("fuzzcheck: %v: %w", c, err)
	}
	// Where the screen proves the replay quiet, the SLA search takes the
	// plan's makespan and rental cost instead of replaying: the replay
	// must agree with them bit for bit.
	screen, err := sim.NewScreen(sim.Config{Faults: &fc}, s.Workflow.Len())
	if err != nil {
		return fmt.Errorf("fuzzcheck: %v: %w", c, err)
	}
	if screen.Quiet(s) {
		if err := validate.QuietReplay(s, res); err != nil {
			return fmt.Errorf("fuzzcheck: %v: %w", c, err)
		}
	}
	rel := metrics.ReliabilityOf(s, res)
	n := s.Workflow.Len()
	wantFrac := 1.0
	if n > 0 {
		wantFrac = float64(acc.CompletedTasks) / float64(n)
	}
	if !validate.Close(rel.CompletedFraction, wantFrac) {
		return fmt.Errorf("fuzzcheck: %v: completed fraction: metrics %v, events %v",
			c, rel.CompletedFraction, wantFrac)
	}
	// Re-derive the wasted-BTU-seconds premium from the event ledger alone
	// and cross-check the metrics-layer accounting.
	planned := s.Totals()
	wasted := acc.IdleSeconds + acc.WastedSeconds - planned.Idle
	if !res.Completed {
		wasted = acc.IdleSeconds + acc.WastedSeconds + acc.UsefulSeconds
	}
	if !validate.Close(rel.WastedBTUSeconds, wasted) {
		return fmt.Errorf("fuzzcheck: %v: wasted BTU-seconds: metrics %v, events %v",
			c, rel.WastedBTUSeconds, wasted)
	}
	if !validate.Close(rel.AddedCost, acc.RentalCost-planned.Rental) {
		return fmt.Errorf("fuzzcheck: %v: added cost: metrics %v, events %v",
			c, rel.AddedCost, acc.RentalCost-planned.Rental)
	}
	if rel.VMCrashes != acc.Crashes || rel.TaskFailures != acc.Failures ||
		rel.Retries != acc.Retries || rel.Resubmits != acc.Resubmits {
		return fmt.Errorf("fuzzcheck: %v: fault counters: metrics %+v, events %+v", c, rel, acc)
	}
	if rel.SpotPreemptions != acc.Preempts || rel.FallbackVMs != acc.FallbackVMs {
		return fmt.Errorf("fuzzcheck: %v: market counters: metrics preempts %d fallbacks %d, events preempts %d fallbacks %d",
			c, rel.SpotPreemptions, rel.FallbackVMs, acc.Preempts, acc.FallbackVMs)
	}
	if !validate.Close(rel.FallbackPremium, acc.FallbackPremium) {
		return fmt.Errorf("fuzzcheck: %v: fallback premium: metrics %v, events %v",
			c, rel.FallbackPremium, acc.FallbackPremium)
	}
	if !validate.Close(rel.WarmIdleSeconds, acc.WarmIdleSeconds) {
		return fmt.Errorf("fuzzcheck: %v: warm idle: metrics %v, events %v",
			c, rel.WarmIdleSeconds, acc.WarmIdleSeconds)
	}
	return nil
}

// Random draws a case from the given stream position. Same index, same
// case — wffuzz workers can partition the stream deterministically.
func Random(sweepSeed uint64, i int) Case {
	r := stats.NewRNG(fault.CellSeed(sweepSeed, fmt.Sprint(i)))
	return Case{
		Tasks:     1 + r.Intn(40),
		Seed:      r.Uint64(),
		EdgePct:   r.Intn(61),
		ZeroWork:  r.Intn(4) == 0,
		BTUWork:   r.Intn(4) == 0,
		Scenario:  r.Intn(len(scenarios())),
		Strategy:  r.Intn(len(Strategies())),
		Fault:     r.Intn(len(fault.PresetNames())),
		FaultSeed: uint64(r.Intn(1 << 16)),
	}.Normalize()
}

// RandomMarket draws a case from a market-focused stream: the strategy is
// always one of the market synthetics or hedging provisioners, and the
// fault preset is drawn from {none, preempt-mild, preempt-storm} so spot
// preemption, fallback and warm-idle accounting dominate the sweep. Like
// Random, same (seed, index) yields the same case.
func RandomMarket(sweepSeed uint64, i int) Case {
	r := stats.NewRNG(fault.CellSeed(sweepSeed, "market", fmt.Sprint(i)))
	strats := marketStrategies()
	faults := []int{faultIndex("none"), faultIndex("preempt-mild"), faultIndex("preempt-storm")}
	return Case{
		Tasks:     1 + r.Intn(40),
		Seed:      r.Uint64(),
		EdgePct:   r.Intn(61),
		ZeroWork:  r.Intn(4) == 0,
		BTUWork:   r.Intn(4) == 0,
		Scenario:  r.Intn(len(scenarios())),
		Strategy:  strats[r.Intn(len(strats))],
		Fault:     faults[r.Intn(len(faults))],
		FaultSeed: uint64(r.Intn(1 << 16)),
	}.Normalize()
}

// Shrink greedily reduces a failing case while it keeps failing, and
// returns the smallest reproducer found. fails must be deterministic.
func Shrink(c Case, fails func(Case) bool) Case {
	c = c.Normalize()
	if !fails(c) {
		return c // not reproducible; nothing to shrink
	}
	improved := true
	for improved {
		improved = false
		for _, cand := range shrinkSteps(c) {
			cand = cand.Normalize()
			if cand != c && fails(cand) {
				c = cand
				improved = true
				break
			}
		}
	}
	return c
}

// shrinkSteps proposes one-step reductions of a case, most aggressive
// first.
func shrinkSteps(c Case) []Case {
	var out []Case
	for _, t := range []int{1, c.Tasks / 2, c.Tasks - 1} {
		if t >= 1 && t < c.Tasks {
			d := c
			d.Tasks = t
			out = append(out, d)
		}
	}
	if c.EdgePct > 0 {
		d := c
		d.EdgePct = 0
		out = append(out, d)
		h := c
		h.EdgePct = c.EdgePct / 2
		out = append(out, h)
	}
	for _, flag := range []func(*Case){
		func(d *Case) { d.ZeroWork = false },
		func(d *Case) { d.BTUWork = false },
	} {
		d := c
		flag(&d)
		out = append(out, d)
	}
	if c.Scenario != 0 { // scenario 0 is AsIs
		d := c
		d.Scenario = 0
		out = append(out, d)
	}
	if c.FaultName() != "none" {
		d := c
		d.Fault = faultIndex("none")
		d.FaultSeed = 0
		out = append(out, d)
	}
	if c.Seed != 0 {
		d := c
		d.Seed = c.Seed / 2
		out = append(out, d)
	}
	return out
}

// faultIndex maps a preset name back to its index in fault.PresetNames.
func faultIndex(name string) int {
	for i, n := range fault.PresetNames() {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("fuzzcheck: unknown fault preset %q", name))
}

// Encode renders the case in the native Go fuzz corpus format, field
// order matching the FuzzSchedule / FuzzSimAgree signatures. The output is a valid
// `go test -fuzz` corpus file, so shrunk reproducers emitted by
// cmd/wffuzz drop straight into testdata/fuzz/.
func Encode(c Case) []byte {
	c = c.Normalize()
	return []byte(fmt.Sprintf("go test fuzz v1\nint(%d)\nuint64(%d)\nint(%d)\nbool(%v)\nbool(%v)\nint(%d)\nint(%d)\nint(%d)\nuint64(%d)\n",
		c.Tasks, c.Seed, c.EdgePct, c.ZeroWork, c.BTUWork,
		c.Scenario, c.Strategy, c.Fault, c.FaultSeed))
}
