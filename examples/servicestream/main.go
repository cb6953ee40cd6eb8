// Service stream: the instance-intensive setting of the paper's related
// work. A stream of non-deterministic workflow instances (XOR quality
// split + refinement loop, so every instance realizes a different DAG)
// arrives at an elastic VM pool with BTU-boundary auto-scaling. The
// example shows (1) the makespan/cost distribution a static strategy
// induces across realized instances, and (2) how arrival rate and pool
// caps move the cost/response-time trade-off under load.
//
// Run with:
//
//	go run ./examples/servicestream
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/ndwf"
	"repro/internal/online"
	"repro/internal/sched"
	"repro/internal/sla"
	"repro/internal/stats"
)

// orderTemplate models an order-processing workflow: validation, parallel
// inventory+payment, an exceptional manual-review branch, and a retry loop
// around the shipping booking.
func orderTemplate() ndwf.Template {
	return ndwf.Template{
		Name: "order",
		Root: ndwf.Seq{
			ndwf.Task{Name: "validate", Work: 120},
			ndwf.Par{
				ndwf.Task{Name: "inventory", Work: 300},
				ndwf.Task{Name: "payment", Work: 240},
			},
			ndwf.Xor{
				Branches: []ndwf.Block{
					ndwf.Task{Name: "auto-approve", Work: 60},
					ndwf.Seq{
						ndwf.Task{Name: "manual-review", Work: 1800},
						ndwf.Task{Name: "re-check", Work: 300},
					},
				},
				Probs: []float64{0.9, 0.1},
			},
			ndwf.Loop{Body: ndwf.Task{Name: "book-shipping", Work: 200}, Repeat: 0.25, Max: 3},
			ndwf.Task{Name: "confirm", Work: 90},
		},
	}
}

func main() {
	tpl := orderTemplate()

	// Part 1 — static scheduling across realized instances: the makespan
	// and cost distribution each strategy induces on the non-deterministic
	// application.
	fmt.Println("per-instance outcome distribution over 200 realized DAGs:")
	for _, alg := range []sched.Algorithm{
		sched.Baseline(),
		sched.NewAllPar1LnS(),
		sched.NewAllPar1LnSDyn(),
	} {
		// No deadline: only the makespan and cost distributions matter.
		res, err := sla.Measure(tpl, alg, sched.DefaultOptions(), math.Inf(1), sla.Config{Samples: 200, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s makespan p50 %6.0fs p99 %6.0fs   cost mean $%.3f\n",
			alg.Name(), res.Makespan.Median, res.Makespan.P99, res.Cost.Mean)
	}

	// Part 2 — the same instances as an arriving stream against an
	// auto-scaled pool.
	fmt.Println("\nonline stream (400 orders, exponential arrivals):")
	build := func(i int, r *stats.RNG) *dag.Workflow {
		wf, err := tpl.Sample(r.Uint64())
		if err != nil {
			log.Fatal(err)
		}
		return wf
	}
	for _, cse := range []struct {
		label            string
		meanInterarrival float64
		maxVMs           int
	}{
		{"light load, uncapped", 600, 64},
		{"heavy load, uncapped", 60, 64},
		{"heavy load, 4-VM cap", 60, 4},
	} {
		res, err := online.Run(online.Config{
			MeanInterarrival: cse.meanInterarrival,
			Instances:        400,
			Instance:         build,
			Type:             cloud.Small,
			Region:           cloud.USEastVirginia,
			MaxVMs:           cse.maxVMs,
			Seed:             5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s response p50 %7.0fs p99 %8.0fs   cost $%7.2f   peak %2d VMs   util %3.0f%%\n",
			cse.label, res.ResponseTimes.Median, res.ResponseTimes.P99,
			res.TotalCost, res.PeakVMs, 100*res.Utilization())
	}
	fmt.Println("\nthe BTU-boundary scale-down keeps utilization high while bursts rent extra VMs;")
	fmt.Println("capping the pool trades response time for rent, the paper's trade-off under load.")
}
