// Command ndflow works with non-deterministic workflow templates (XOR
// splits and loops resolved at runtime, the paper's second workflow class):
// it emits templates as JSON, samples concrete DAG instances from a
// template, and reports the makespan/cost distribution a strategy induces
// across realized instances. Deadline questions over a template go to
// wfsim -wf <template> -deadline.
//
// Usage:
//
//	ndflow -emit template > order.json
//	ndflow -in order.json -emit instance -seed 7 > instance.json
//	ndflow -in montage12 -emit stats -n 200 -strategy AllPar1LnSDyn
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sla"
	"repro/internal/spec"
	"repro/internal/wfio"
)

func main() {
	var (
		in       = flag.String("in", "order", "built-in template name or template JSON file")
		emit     = flag.String("emit", "template", "what to emit: template, instance, or stats")
		seed     = flag.Uint64("seed", 42, "sampling seed")
		n        = flag.Int("n", 100, "instances for -emit stats")
		strategy = flag.String("strategy", "OneVMperTask-s", "strategy for -emit stats")
	)
	flag.Parse()
	if err := run(*in, *emit, *seed, *n, *strategy, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ndflow:", err)
		os.Exit(1)
	}
}

func run(in, emit string, seed uint64, n int, strategy string, w io.Writer) error {
	sp := spec.TemplateArg(in)
	if err := sp.Validate(); err != nil {
		return err
	}
	tpl := sp.Value()
	switch emit {
	case "template":
		return ndwf.EncodeJSON(w, tpl)
	case "instance":
		wf, err := tpl.Sample(seed)
		if err != nil {
			return err
		}
		return wfio.Encode(w, wf)
	case "stats":
		alg, err := core.StrategyByName(strategy)
		if err != nil {
			return err
		}
		// With no deadline every instance meets it; the pass is wanted
		// for its makespan and cost distributions.
		res, err := sla.Measure(tpl, alg, sched.DefaultOptions(), math.Inf(1), sla.Config{Samples: n, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "template %s, %d realized instances, strategy %s\n", tpl.Name, n, strategy)
		fmt.Fprintf(w, "  makespan  p50 %7.0fs  p90 %7.0fs  p99 %7.0fs  max %7.0fs\n",
			res.Makespan.Median, res.Makespan.P90, res.Makespan.P99, res.Makespan.Max)
		fmt.Fprintf(w, "  cost      mean $%.3f  p99 $%.3f\n", res.Cost.Mean, res.Cost.P99)
		return nil
	}
	return fmt.Errorf("unknown -emit %q", emit)
}
