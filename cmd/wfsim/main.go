// Command wfsim schedules one workflow with one strategy and reports the
// outcome: makespan, cost, idle time, the per-VM Gantt chart, and the
// cross-check against the discrete-event simulator.
//
// Usage:
//
//	wfsim -wf Montage -strategy AllParExceed-m -scenario Pareto -seed 42
//	wfsim -wf my-workflow.json -strategy CPA-Eager -gantt=false
//	wfsim -wf CSTEM -strategy GAIN -boot 120
//	wfsim -wf Montage -strategy HEFT-s -fault-rate 0.5 -recovery resubmit
//	wfsim -wf Montage -strategy SpotFallback -market spot-fallback -preempt-rate 1.0
//	wfsim -wf Montage -strategy GAIN -trace-out montage.trace.json
//	wfsim -wf montage -deadline 40000 -confidence 0.95 -samples 200
//
// -trace-out writes the simulated replay as Chrome trace-event JSON
// (open in Perfetto or chrome://tracing: one track per VM lease showing
// boot/task/idle spans, BTU boundaries, and crashes); -events-out writes
// the raw event stream as NDJSON.
//
// -deadline switches to SLA mode: -wf then names a non-deterministic
// template ("montage", "order", a "montage<n>" spec, or a template JSON
// file), and wfsim searches the strategy portfolio for the cheapest
// candidate whose sampled makespan distribution meets the deadline with
// at least -confidence probability.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sla"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/validate"
)

func main() {
	var (
		wfArg    = flag.String("wf", "Montage", "workflow: Montage, CSTEM, MapReduce, Sequential, Fig1, or a JSON file path")
		strategy = flag.String("strategy", "OneVMperTask-s", "strategy name from the catalog (see -list)")
		scenario = flag.String("scenario", "Pareto", `execution-time scenario: "Pareto", "Best case", "Worst case", or "none" to keep the workflow's own weights`)
		seed     = flag.Uint64("seed", 42, "seed for the Pareto scenario")
		region   = flag.String("region", cloud.USEastVirginia.String(), "EC2 region for pricing")
		boot     = flag.Float64("boot", 0, "simulated VM boot time in seconds (0 = pre-booted, as in the paper)")
		gantt    = flag.Bool("gantt", true, "print the per-VM Gantt chart")
		svgPath  = flag.String("svg", "", "write the schedule as an SVG Gantt chart to this file")
		csvPath  = flag.String("tracecsv", "", "write the schedule's task slots as CSV to this file")
		traceOut = flag.String("trace-out", "", "write the simulated replay as Chrome trace-event JSON (Perfetto) to this file")
		evOut    = flag.String("events-out", "", "write the simulated replay's event stream as NDJSON to this file")
		list     = flag.Bool("list", false, "list available strategies and exit")

		faultRate = flag.Float64("fault-rate", 0, "VM crash rate per VM-hour (0 = perfect cloud)")
		taskFail  = flag.Float64("task-fail", 0, "per-attempt transient task failure probability")
		recovery  = flag.String("recovery", "retry", "recovery policy under faults: retry, resubmit, or fail")
		retries   = flag.Int("retries", 0, "max retries per task (0 = default, negative = none)")
		rebootS   = flag.Float64("reboot", 0, "boot lag of replacement VMs in seconds")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the fault draws")

		marketArg   = flag.String("market", "", "market preset pricing every lease: "+strings.Join(market.PresetNames(), ", ")+" (empty = paper economics)")
		marketSeed  = flag.Uint64("market-seed", 0, "override the market preset's cold-start draw seed")
		preemptRate = flag.Float64("preempt-rate", 0, "spot reclamations per spot-VM-hour (needs a spot market preset)")

		deadline   = flag.Float64("deadline", 0, "SLA mode: deadline in seconds; -wf names an ndwf template (0 = off)")
		confidence = flag.Float64("confidence", 0.95, "SLA mode: required P(makespan <= deadline)")
		samples    = flag.Int("samples", 200, "SLA mode: Monte-Carlo template instances per candidate")
		explain    = flag.Bool("explain", false, "SLA mode: print the decision audit (per-candidate verdicts and winner rationale)")
	)
	flag.Parse()

	if *list {
		for _, name := range core.StrategyNames() {
			fmt.Println(name)
		}
		for _, name := range core.TemplateNames() {
			fmt.Printf("%s (template)\n", name)
		}
		return
	}
	// The fault flags map onto one spec part, validated with the rest of
	// the problem before anything is scheduled.
	faults := spec.Faults{CrashRate: *faultRate, PreemptRate: *preemptRate, TaskFailProb: *taskFail,
		Recovery: *recovery, MaxRetries: *retries, RebootS: *rebootS, Seed: *faultSeed}
	var err error
	if *deadline > 0 {
		strategySet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "strategy" {
				strategySet = true
			}
		})
		if *marketSeed != 0 {
			fmt.Fprintln(os.Stderr, "wfsim: -market-seed does not apply to SLA mode (presets keep their pinned seeds)")
			os.Exit(1)
		}
		err = runSLA(*wfArg, *strategy, strategySet, *deadline, *confidence, *samples, *seed, *region, *marketArg, faults, *explain)
	} else {
		// An empty -market is the paper's economics, which takes no
		// -market-seed.
		mkt := spec.Market{Preset: cmp.Or(*marketArg, "none"), Seed: *marketSeed}
		err = run(*wfArg, *strategy, *scenario, *seed, *region, *boot, *gantt, *svgPath, *csvPath, *traceOut, *evOut, faults, mkt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsim:", err)
		os.Exit(1)
	}
}

// runSLA is the -deadline mode: portfolio search for the cheapest
// strategy/market pair meeting the deadline at the target confidence.
// An explicitly set -strategy restricts the portfolio to that one
// strategy; -market likewise restricts the market presets. A search that
// completes but misses the target still prints the full report and then
// exits non-zero, so scripts can branch on the verdict. With explain the
// report is followed by the decision audit: one row per candidate in
// portfolio order with its fate and rationale.
func runSLA(wfArg, strategy string, strategySet bool, deadline, confidence float64, samples int, seed uint64, regionName, marketArg string, faults spec.Faults, explain bool) error {
	sp := spec.SLA{Template: spec.TemplateArg(wfArg), DeadlineS: deadline, Confidence: confidence,
		Samples: samples, Seed: seed, Region: spec.Region(regionName), Faults: faults}
	if strategySet {
		sp.Strategies = []string{strategy}
	}
	if marketArg != "" {
		sp.Markets = []string{marketArg}
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	tpl, cfg := sp.Template.Value(), sp.Search()
	tasks, err := tpl.ExpectedTasks()
	if err != nil {
		return err
	}
	sr, searchErr := sla.Search(tpl, cfg)
	if searchErr != nil && !errors.Is(searchErr, sla.ErrNoStrategyMeets) {
		return searchErr
	}
	fmt.Printf("template   %s (%d tasks expected, %d samples, seed %d)\n",
		tpl.Name, tasks, sp.Samples, seed)
	fmt.Printf("region     %s\n\n", sp.Region)
	fmt.Print(sla.Render(sr))
	if explain {
		fmt.Println()
		fmt.Print(sla.RenderExplain(sr))
	}
	if searchErr != nil {
		return fmt.Errorf("deadline %g s not met at P >= %g", deadline, sp.Confidence)
	}
	return nil
}

// run is the default mode: -wf names a registry workflow or a wfio/DAX
// file, and the whole problem is validated before it is scheduled.
func run(wfArg, strategy, scenario string, seed uint64, regionName string, boot float64, gantt bool, svgPath, csvPath, traceOut, eventsOut string, faultSpec spec.Faults, marketSpec spec.Market) error {
	sp := spec.Schedule{Workflow: spec.WorkflowArg(wfArg), Scenario: spec.Scenario(scenario),
		Strategy: spec.Strategy{Label: strategy}, Region: spec.Region(regionName), Seed: seed,
		Simulate: true, BootS: boot, Faults: faultSpec, Market: marketSpec}
	if err := sp.Validate(); err != nil {
		return err
	}
	wf := sp.Scenario.Value().Apply(sp.Workflow.Value(), seed)
	alg, region, faults, mkt := sp.Strategy.Value(), sp.Region.Value(), sp.Faults.Value(), sp.Market.Value()
	opts := sched.Options{Platform: cloud.NewPlatform(), Region: region, Market: mkt}

	s, err := alg.Schedule(wf, opts)
	if err != nil {
		return err
	}
	if err := validate.Schedule(s); err != nil {
		return fmt.Errorf("schedule failed validation: %w", err)
	}
	base, err := sched.Baseline().Schedule(wf, opts)
	if err != nil {
		return err
	}
	point := metrics.Compare(strategy, s, base)

	fmt.Printf("workflow   %s (%d tasks, %d levels, max parallelism %d)\n",
		wf.Name, wf.Len(), wf.Depth(), wf.MaxParallelism())
	fmt.Printf("strategy   %s in %s\n", strategy, region)
	if mkt != nil {
		fmt.Printf("market     %s\n", mkt)
	}
	fmt.Printf("makespan   %.1f s   (baseline %.1f s, gain %.1f%%)\n",
		s.Makespan(), base.Makespan(), point.GainPct)
	fmt.Printf("cost       $%.4f (baseline $%.4f, loss %.1f%%)\n",
		s.TotalCost(), base.TotalCost(), point.LossPct)
	fmt.Printf("idle       %.1f s over %d VMs\n", s.IdleTime(), s.VMCount())
	fmt.Printf("category   %s\n\n", metrics.Classify(point))

	if gantt {
		fmt.Println(trace.Gantt(s, 100))
	}
	if svgPath != "" {
		if err := writeFile(svgPath, func(f *os.File) error { return trace.SVG(f, s) }); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(f *os.File) error { return trace.WriteCSV(f, s) }); err != nil {
			return err
		}
	}

	simCfg := sim.Config{BootTime: boot, Faults: faults}
	var col *obs.Collector
	if traceOut != "" || eventsOut != "" {
		col = &obs.Collector{}
		simCfg.Recorder = col
	}
	res, err := sim.Run(s, simCfg)
	if err != nil {
		return err
	}
	if traceOut != "" {
		if err := writeFile(traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, col.Events, nil)
		}); err != nil {
			return err
		}
	}
	if eventsOut != "" {
		if err := writeFile(eventsOut, func(f *os.File) error {
			return obs.WriteNDJSON(f, col.Events)
		}); err != nil {
			return err
		}
	}
	switch {
	case faults.Active():
		rel := metrics.ReliabilityOf(s, res)
		status := "completed"
		if !rel.Completed {
			status = fmt.Sprintf("FAILED (%s) after %.0f%% of tasks", rel.FailReason, 100*rel.CompletedFraction)
		}
		fmt.Printf("faults     %s, seed %d\n", *faults, faults.Seed)
		fmt.Printf("outcome    %s\n", status)
		fmt.Printf("injected   %d VM crashes, %d task failures (%d retries, %d resubmits, %d replacement VMs)\n",
			res.VMCrashes, res.TaskFailures, res.Retries, res.Resubmits, res.ReplacementVMs)
		if res.SpotPreemptions > 0 || res.FallbackVMs > 0 || res.WarmIdleSeconds > 0 {
			fmt.Printf("market     %d spot preemptions, %d on-demand fallbacks (+$%.4f premium), %.0f s warm idle\n",
				res.SpotPreemptions, res.FallbackVMs, res.FallbackPremium, res.WarmIdleSeconds)
		}
		fmt.Printf("penalty    %+.1f s makespan, %+.4f $ cost, %.0f wasted BTU-seconds\n",
			rel.AddedMakespan, rel.AddedCost, rel.WastedBTUSeconds)
	case boot > 0:
		fmt.Printf("simulated with %.0fs boot: makespan %.1f s (+%.1f), cost $%.4f, idle %.1f s\n",
			boot, res.Makespan, res.Makespan-s.Makespan(), res.RentalCost, res.IdleTime)
	default:
		if err := validate.PlanSim(s); err != nil {
			return fmt.Errorf("simulator disagrees with planner: %w", err)
		}
		fmt.Printf("simulator check: OK (%d events, %d transfers)\n", res.Events, res.Transfers)
	}
	return nil
}

// writeFile creates path, hands it to write, closes it, and reports the
// artifact on stdout.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
