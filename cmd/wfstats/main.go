// Command wfstats profiles a workflow: the structural and weight
// characteristics (width profile, heterogeneity, communication-to-
// computation ratio) that the paper's Table V keys its strategy
// recommendations on. It accepts the registry's workflow names and
// generator specs ("Montage", "montage24", "mapreduce16x8") or JSON/DAX
// files, and can apply any execution-time scenario first.
//
// Usage:
//
//	wfstats -wf Montage -scenario Pareto
//	wfstats -wf montage24
//	wfstats -wf my.dax -reduce
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/spec"
)

func main() {
	var (
		wfArg    = flag.String("wf", "Montage", "workflow: a built-in name or a JSON/DAX file path")
		scenario = flag.String("scenario", "none", `weighting scenario or "none"`)
		seed     = flag.Uint64("seed", 42, "seed for the Pareto scenario")
		reduce   = flag.Bool("reduce", false, "apply transitive reduction before profiling")
	)
	flag.Parse()
	if err := run(*wfArg, *scenario, *seed, *reduce); err != nil {
		fmt.Fprintln(os.Stderr, "wfstats:", err)
		os.Exit(1)
	}
}

func run(wfArg, scenario string, seed uint64, reduce bool) error {
	w, sc := spec.WorkflowArg(wfArg), spec.Scenario(scenario)
	if err := w.Validate(); err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	wf := sc.Value().Apply(w.Value(), seed)
	if reduce {
		before := len(wf.Edges())
		wf = wf.TransitiveReduction()
		if err := wf.Freeze(); err != nil {
			return err
		}
		fmt.Printf("transitive reduction: %d -> %d edges\n", before, len(wf.Edges()))
	}

	p := wf.Profile()
	fmt.Printf("workflow     %s\n", wf.Name)
	fmt.Printf("tasks        %d (%d edges, %.2f edges/task)\n", p.Tasks, p.Edges, p.EdgesPerTask)
	fmt.Printf("structure    %d levels, width max %d / mean %.1f, %d entries, %d exits\n",
		p.Depth, p.MaxWidth, p.MeanWidth, p.EntryCount, p.Exits)
	fmt.Printf("level widths %s\n", widthBar(p.Levels))
	fmt.Printf("work         total %.0fs, per task %.0f..%.0f (mean %.0f, CV %.2f)\n",
		p.TotalWork, p.MinWork, p.MaxWork, p.MeanWork, p.HeterogeneityCV)
	fmt.Printf("data         total %.1f MB\n", p.TotalData/(1<<20))

	platform := cloud.NewPlatform()
	ccr := wf.CCR(dag.CostModel{
		Exec: func(t dag.Task) float64 { return t.Work },
		Comm: func(e dag.Edge) float64 { return platform.TransferTime(e.Data, cloud.Small, cloud.Small) },
	})
	regime := "CPU-bound (the paper's regime)"
	switch {
	case ccr >= 1:
		regime = "data-bound: favour co-location"
	case ccr >= 0.1:
		regime = "mixed"
	}
	fmt.Printf("CCR          %.4f — %s\n", ccr, regime)
	return nil
}

// widthBar renders the level widths as a tiny inline chart.
func widthBar(levels []int) string {
	var b strings.Builder
	for i, n := range levels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s", n, strings.Repeat("#", n))
	}
	return b.String()
}
