package sla_test

import (
	"fmt"

	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sla"
)

// Example estimates the probability of meeting a deadline when a workflow
// contains a rare slow branch, and picks the cheapest strategy reaching a
// 95% SLA.
func Example() {
	tpl := ndwf.Template{
		Name: "checkout",
		Root: ndwf.Seq{
			ndwf.Task{Name: "base", Work: 900},
			ndwf.Xor{
				Branches: []ndwf.Block{
					ndwf.Task{Name: "instant", Work: 60},
					ndwf.Task{Name: "fraud-review", Work: 2400},
				},
				Probs: []float64{0.9, 0.1},
			},
		},
	}
	opts := sched.DefaultOptions()
	// With a target of 0 every strategy qualifies, so the one given comes
	// back with its estimate.
	est, _, err := sla.CheapestMeeting(tpl, []sched.Algorithm{sched.Baseline()},
		opts, 1200, 0, 1000, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline meets a 1200s deadline with p = %.2f\n", est.MeetProbability)

	best, _, err := sla.CheapestMeeting(tpl,
		[]sched.Algorithm{sched.Baseline(), sched.NewGain()},
		opts, 1650, 0.95, 400, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cheapest strategy at p >= 0.95 for 1650s: %s\n", best.Strategy)
	// Output:
	// baseline meets a 1200s deadline with p = 0.91
	// cheapest strategy at p >= 0.95 for 1650s: GAIN
}
