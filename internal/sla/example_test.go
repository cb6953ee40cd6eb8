package sla_test

import (
	"fmt"

	"repro/internal/frontier"
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
	res, err := sla.Measure(tpl, sched.Baseline(), opts, 1200, sla.Config{Samples: 1000, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline meets a 1200s deadline with p = %.2f, %.0f%% CI [%.2f, %.2f]\n",
		res.MeetProbability, 100*sla.CILevel, res.MeetCI.Lo, res.MeetCI.Hi)

	sr, err := sla.Search(tpl, sla.SearchConfig{
		Deadline:   1650,
		Target:     0.95,
		Config:     sla.Config{Samples: 400, Seed: 1},
		Candidates: frontier.Portfolio([]string{sched.Baseline().Name(), "GAIN"}, nil),
		Opts:       opts,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cheapest strategy at p >= 0.95 for 1650s: %s (p = %.2f)\n",
		sr.Best.Strategy, sr.Best.MeetProbability)
	// Output:
	// baseline meets a 1200s deadline with p = 0.91, 95% CI [0.89, 0.92]
	// cheapest strategy at p >= 0.95 for 1650s: GAIN (p = 1.00)
}
