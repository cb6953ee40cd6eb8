// Command wfgen generates workflow definitions — the paper's four shapes
// plus parametric variants — as JSON (for wfsim) or Graphviz DOT (for
// inspection), optionally weighted by one of the execution-time scenarios.
//
// Usage:
//
//	wfgen -type montage -n 8 -format json > montage.json
//	wfgen -type mapreduce -m 16 -r 4 -scenario Pareto -seed 3 -format dot
//	wfgen -type random -n 30 -seed 9
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/dax"
	"repro/internal/dot"
	"repro/internal/wfio"
	"repro/internal/workflows"
	"repro/internal/workload"
)

func main() {
	var (
		typ      = flag.String("type", "montage", "workflow type: montage, cstem, mapreduce, sequential, fig1, random")
		n        = flag.Int("n", 6, "size parameter: montage images, sequential length, random task count")
		m        = flag.Int("m", 8, "mapreduce: mappers per phase")
		r        = flag.Int("r", 4, "mapreduce: reducers")
		format   = flag.String("format", "json", "output format: json, dot, or dax (Pegasus XML)")
		scenario = flag.String("scenario", "none", `weighting scenario: "none", "Pareto", "Best case", "Worst case"`)
		seed     = flag.Uint64("seed", 42, "seed for Pareto weights and random structure")
	)
	flag.Parse()
	if err := run(*typ, *n, *m, *r, *format, *scenario, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "wfgen:", err)
		os.Exit(1)
	}
}

func run(typ string, n, m, r int, format, scenario string, seed uint64) error {
	// Each shape's size is checked before its constructor, which panics
	// on a size it cannot take.
	var wf *dag.Workflow
	switch typ {
	case "montage":
		if n < 2 {
			return fmt.Errorf("montage needs -n >= 2 images, got %d", n)
		}
		wf = workflows.Montage(n)
	case "cstem":
		wf = workflows.CSTEM()
	case "mapreduce":
		if m < 1 || r < 1 {
			return fmt.Errorf("mapreduce needs -m >= 1 and -r >= 1, got %d and %d", m, r)
		}
		wf = workflows.MapReduce(m, r)
	case "sequential":
		if n < 1 {
			return fmt.Errorf("sequential needs -n >= 1 tasks, got %d", n)
		}
		wf = workflows.Sequential(n)
	case "fig1":
		wf = workflows.Fig1SubWorkflow()
	case "random":
		if n < 1 {
			return fmt.Errorf("random needs -n >= 1 tasks, got %d", n)
		}
		cfg := dagtest.DefaultConfig()
		cfg.MinTasks, cfg.MaxTasks = n, n
		wf = dagtest.Random(seed, cfg)
	default:
		return fmt.Errorf("unknown type %q", typ)
	}

	if scenario != "none" {
		sc, err := workload.ParseScenario(scenario)
		if err != nil {
			return err
		}
		wf = sc.Apply(wf, seed)
	}

	switch format {
	case "json":
		return wfio.Encode(os.Stdout, wf)
	case "dot":
		return dot.Workflow(os.Stdout, wf)
	case "dax":
		return dax.Encode(os.Stdout, wf)
	}
	return fmt.Errorf("unknown format %q", format)
}
