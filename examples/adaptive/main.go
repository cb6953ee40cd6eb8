// Adaptive strategy selection — the paper's concluding proposal turned
// into code: run the sweep once, then, for each workflow class and user
// goal (savings / gain / balance), pick the provisioning + scheduling
// combination the evidence recommends, as in Table V.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	// Build the evidence base: the full workflow x scenario x strategy
	// grid. Paranoid mode cross-checks every schedule in the simulator.
	sweep, err := core.Run(core.Config{Seed: 42, Paranoid: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated %d (workflow, scenario, strategy) cells\n\n", sweep.Len())

	// An incoming job: "a MapReduce-like workflow; I care about cost".
	rec, err := sweep.Recommend("MapReduce", metrics.Savings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost-sensitive MapReduce user -> use %s (saves %.0f%% in the Pareto case)\n",
		rec.Strategy, rec.Point.SavingsPct())

	// The same workflow for a deadline-driven user.
	rec, err = sweep.Recommend("MapReduce", metrics.Gain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deadline-driven MapReduce user -> use %s (gains %.0f%%)\n\n",
		rec.Strategy, rec.Point.GainPct)

	// The full Table V: every workflow class crossed with every goal.
	fmt.Println("full recommendation matrix (Table V):")
	recs, err := sweep.Table5()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("  %-11s %-8s -> %-22s (gain %5.1f%%, savings %5.1f%%)\n",
			r.Workflow, r.Goal, r.Strategy, r.Point.GainPct, r.Point.SavingsPct())
	}

	// Adaptive dispatch: schedule the actual workflow with the strategy
	// the recommender picked for the balance goal.
	rec, err = sweep.Recommend("Montage", metrics.Balance)
	if err != nil {
		log.Fatal(err)
	}
	alg, err := sched.ByName(rec.Strategy)
	if err != nil {
		log.Fatal(err)
	}
	wf := workload.Pareto.Apply(sweep.Config.Workflows["Montage"], 42)
	s, err := alg.Schedule(wf, sched.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptively dispatched Montage via %s: makespan %.0fs, cost $%.3f on %d VMs\n",
		rec.Strategy, s.Makespan(), s.TotalCost(), s.VMCount())
}
