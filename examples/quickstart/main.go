// Quickstart: build a workflow, schedule it with two strategies, and
// compare makespan, cost and idle time.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/validate"
	"repro/internal/workflows"
	"repro/internal/workload"
)

func main() {
	// 1. Take the paper's 24-task Montage workflow and weight it with the
	//    Pareto execution-time model (mean ~1000s per task).
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	fmt.Printf("workflow: %s — %d tasks in %d levels, max parallelism %d\n\n",
		wf.Name, wf.Len(), wf.Depth(), wf.MaxParallelism())

	// 2. Schedule it with the baseline (HEFT + one fresh small VM per
	//    task) and with the level-based AllParExceed policy on medium VMs.
	opts := sched.Options{Platform: cloud.NewPlatform(), Region: cloud.USEastVirginia}
	base, err := sched.Baseline().Schedule(wf, opts)
	if err != nil {
		log.Fatal(err)
	}
	allPar, err := sched.ByName("AllParExceed-m")
	if err != nil {
		log.Fatal(err)
	}
	s, err := allPar.Schedule(wf, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compare: the point below is one marker of the paper's Fig. 4.
	point := metrics.Compare(allPar.Name(), s, base)
	fmt.Printf("baseline  %-20s makespan %7.0fs  cost $%6.3f  idle %7.0fs\n",
		sched.Baseline().Name(), base.Makespan(), base.TotalCost(), base.IdleTime())
	fmt.Printf("strategy  %-20s makespan %7.0fs  cost $%6.3f  idle %7.0fs\n\n",
		allPar.Name(), s.Makespan(), s.TotalCost(), s.IdleTime())
	fmt.Printf("gain %.1f%%, savings %.1f%% -> %v\n\n",
		point.GainPct, point.SavingsPct(), metrics.Classify(point))

	// 4. Every planned schedule replays exactly in the discrete-event
	//    simulator — run it and show the Gantt chart.
	if err := validate.PlanSim(s); err != nil {
		log.Fatalf("simulator disagrees: %v", err)
	}
	fmt.Println(trace.Gantt(s, 96))
}
