package online_test

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/online"
	"repro/internal/stats"
)

// Example runs a stream of three-task pipelines against an auto-scaled
// pool and reports the service quality and the bill.
func Example() {
	res, err := online.Run(online.Config{
		MeanInterarrival: 400,
		Instances:        50,
		Instance: func(i int, r *stats.RNG) *dag.Workflow {
			return dagtest.Chain(3, 300)
		},
		Type:     cloud.Small,
		Region:   cloud.USEastVirginia,
		MaxVMs:   8,
		Deadline: 1000,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed %d instances, median response %.0fs\n",
		res.ResponseTimes.N, res.ResponseTimes.Median)
	fmt.Printf("peak pool %d VMs, utilization %.0f%%\n", res.PeakVMs, 100*res.Utilization())
	fmt.Printf("SLA at 1000s: %.0f%% met\n", 100*float64(res.SLAMet)/float64(res.ResponseTimes.N))
	// Output:
	// completed 50 instances, median response 900s
	// peak pool 7 VMs, utilization 46%
	// SLA at 1000s: 100% met
}
