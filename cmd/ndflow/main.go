// Command ndflow works with non-deterministic workflow templates (XOR
// splits and loops resolved at runtime, the paper's second workflow class):
// it emits example templates as JSON, samples concrete DAG instances from
// a template, and reports the makespan/cost distribution a strategy
// induces across realized instances.
//
// Usage:
//
//	ndflow -emit template > order.json
//	ndflow -in order.json -emit instance -seed 7 > instance.json
//	ndflow -in order.json -emit stats -n 200 -strategy AllPar1LnSDyn
//	ndflow -in order.json -emit sla -deadline 2400 -target 0.95
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sla"
	"repro/internal/wfio"
)

func main() {
	var (
		in       = flag.String("in", "", "template JSON file (empty = the built-in example)")
		emit     = flag.String("emit", "template", "what to emit: template, instance, stats, or sla")
		seed     = flag.Uint64("seed", 42, "sampling seed")
		n        = flag.Int("n", 100, "instances for -emit stats / -emit sla")
		strategy = flag.String("strategy", "OneVMperTask-s", "strategy for -emit stats")
		deadline = flag.Float64("deadline", 3600, "deadline in seconds for -emit sla")
		target   = flag.Float64("target", 0.95, "required meet probability for -emit sla")
	)
	flag.Parse()
	if err := run(*in, *emit, *seed, *n, *strategy, *deadline, *target); err != nil {
		fmt.Fprintln(os.Stderr, "ndflow:", err)
		os.Exit(1)
	}
}

func run(in, emit string, seed uint64, n int, strategy string, deadline, target float64) error {
	tpl := ndwf.Order()
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if tpl, err = ndwf.DecodeJSON(f); err != nil {
			return err
		}
	}
	switch emit {
	case "template":
		return ndwf.EncodeJSON(os.Stdout, tpl)
	case "instance":
		wf, err := tpl.Sample(seed)
		if err != nil {
			return err
		}
		return wfio.Encode(os.Stdout, wf)
	case "stats":
		alg, err := core.StrategyByName(strategy)
		if err != nil {
			return err
		}
		out, err := ndwf.Distribution(tpl, alg, sched.DefaultOptions(), n, seed)
		if err != nil {
			return err
		}
		fmt.Printf("template %s, %d realized instances, strategy %s\n", tpl.Name, n, strategy)
		fmt.Printf("  tasks     %2.0f .. %2.0f (mean %.1f)\n", out.Tasks.Min, out.Tasks.Max, out.Tasks.Mean)
		fmt.Printf("  makespan  p50 %7.0fs  p90 %7.0fs  p99 %7.0fs  max %7.0fs\n",
			out.Makespan.Median, out.Makespan.P90, out.Makespan.P99, out.Makespan.Max)
		fmt.Printf("  cost      mean $%.3f  p99 $%.3f\n", out.Cost.Mean, out.Cost.P99)
		fmt.Printf("  idle      mean %.0fs\n", out.Idle.Mean)
		return nil
	case "sla":
		best, all, err := sla.CheapestMeeting(tpl, sched.Catalog(), sched.DefaultOptions(),
			deadline, target, n, seed)
		if err != nil && !errors.Is(err, sla.ErrNoStrategyMeets) {
			return err
		}
		fmt.Printf("deadline %.0fs at p >= %.2f over %d instances:\n", deadline, target, n)
		for _, est := range all {
			marker := " "
			if est.Strategy == best.Strategy {
				marker = ">"
			}
			fmt.Printf(" %s %-22s meet %5.2f  mean cost $%7.3f  mean makespan %7.0fs\n",
				marker, est.Strategy, est.MeetProbability, est.MeanCost, est.MeanMakespan)
		}
		if errors.Is(err, sla.ErrNoStrategyMeets) {
			fmt.Println("no strategy reaches the target; '>' marks the best effort")
		}
		return nil
	}
	return fmt.Errorf("unknown -emit %q", emit)
}
