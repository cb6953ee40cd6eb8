package sla

import (
	"errors"
	"math"
	"testing"

	"repro/internal/frontier"
	"repro/internal/ndwf"
	"repro/internal/sched"
)

// template: 600s of fixed work plus a 50%-probability 1200s detour.
func template() ndwf.Template {
	return ndwf.Template{
		Name: "sla",
		Root: ndwf.Seq{
			ndwf.Task{Name: "base", Work: 600},
			ndwf.Xor{
				Branches: []ndwf.Block{
					ndwf.Task{Name: "fast", Work: 100},
					ndwf.Task{Name: "slow", Work: 1200},
				},
				Probs: []float64{0.5, 0.5},
			},
		},
	}
}

func TestEvaluateProbabilities(t *testing.T) {
	opts := sched.DefaultOptions()
	// Deadline 800s on small: only the fast branch (700s) fits; the slow
	// branch takes 1800s. Meet probability ~0.5.
	res, err := Measure(template(), sched.Baseline(), opts, 800, Config{Samples: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeetProbability < 0.4 || res.MeetProbability > 0.6 {
		t.Errorf("meet probability = %v, want ~0.5", res.MeetProbability)
	}
	// A generous deadline is always met.
	res, err = Measure(template(), sched.Baseline(), opts, 10000, Config{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeetProbability != 1 {
		t.Errorf("generous deadline met with p=%v", res.MeetProbability)
	}
	// An impossible deadline is never met.
	res, err = Measure(template(), sched.Baseline(), opts, 1, Config{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeetProbability != 0 {
		t.Errorf("impossible deadline met with p=%v", res.MeetProbability)
	}
}

func TestEvaluateFasterStrategyMeetsMore(t *testing.T) {
	opts := sched.DefaultOptions()
	cfg := Config{Samples: 300, Seed: 2}
	slow, err := Measure(template(), sched.Baseline(), opts, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Measure(template(), sched.NewGain(), opts, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeetProbability <= slow.MeetProbability {
		t.Errorf("GAIN meets %v <= baseline %v", fast.MeetProbability, slow.MeetProbability)
	}
	if fast.Cost.Mean <= slow.Cost.Mean {
		t.Errorf("GAIN cost %v <= baseline %v — the speed must be paid for", fast.Cost.Mean, slow.Cost.Mean)
	}
}

func TestCheapestMeetingPicksCheapQualifier(t *testing.T) {
	cfg := SearchConfig{
		// Deadline everyone meets: the cheapest strategy wins.
		Deadline: 10000,
		Target:   1.0,
		Config:   Config{Samples: 50, Seed: 3},
		Candidates: frontier.Portfolio([]string{
			sched.Baseline().Name(),
			sched.NewAllPar1LnS().Name(), // cheap, same makespan profile here
			sched.NewGain().Name(),       // fast, expensive
		}, nil),
		Opts: sched.DefaultOptions(),
	}
	sr, err := Search(template(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("results = %d", len(sr.Results))
	}
	for _, r := range sr.Results {
		if sr.Best.Cost.Mean > r.Cost.Mean+1e-9 && r.MeetProbability >= 1.0 {
			t.Errorf("picked %s ($%v) over cheaper qualifier %s ($%v)",
				sr.Best.Strategy, sr.Best.Cost.Mean, r.Strategy, r.Cost.Mean)
		}
	}
	// Unreachable target: ErrNoStrategyMeets.
	cfg.Deadline = 1
	if _, err := Search(template(), cfg); !errors.Is(err, ErrNoStrategyMeets) {
		t.Errorf("err = %v, want ErrNoStrategyMeets", err)
	}
}

func TestValidation(t *testing.T) {
	opts := sched.DefaultOptions()
	if _, err := Measure(template(), sched.Baseline(), opts, 0, Config{Samples: 10, Seed: 1}); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := Measure(template(), sched.Baseline(), opts, 100, Config{Seed: 1}); err == nil {
		t.Error("zero samples accepted")
	}
	cfg := SearchConfig{Deadline: 100, Target: 0.5, Config: Config{Samples: 10, Seed: 1},
		Candidates: []frontier.Candidate{}, Opts: opts}
	if _, err := Search(template(), cfg); err == nil {
		t.Error("empty strategy list accepted")
	}
	cfg.Candidates, cfg.Target = nil, 1.5
	if _, err := Search(template(), cfg); err == nil {
		t.Error("bad target accepted")
	}
}

// TestEvaluateMeanAccumulation pins the pass to its definition: instance
// i is Template.Sample(InstanceSeed(seed, i)), adjacent root seeds draw
// disjoint instance streams, and the means equal, bit for bit, a
// reference loop that sums the per-instance outcomes and divides exactly
// once.
func TestEvaluateMeanAccumulation(t *testing.T) {
	// With seed+i, seeds 1 and 2 would share all instances but one.
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[InstanceSeed(1, i)] = true
	}
	for i := 0; i < 100; i++ {
		if seen[InstanceSeed(2, i)] {
			t.Fatalf("root seeds 1 and 2 share instance seed %d", InstanceSeed(2, i))
		}
	}
	tpl := ndwf.Order()
	alg := sched.Baseline()
	opts := sched.DefaultOptions()
	const n, seed = 7, 42
	res, err := Measure(tpl, alg, opts, 1200, Config{Samples: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var costSum, makespanSum float64
	for i := 0; i < n; i++ {
		wf, err := tpl.Sample(InstanceSeed(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		s, err := alg.Schedule(wf, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespans[i] != s.Makespan() || res.Costs[i] != s.TotalCost() {
			t.Fatalf("instance %d: (%v, %v), want (%v, %v)", i, res.Makespans[i], res.Costs[i], s.Makespan(), s.TotalCost())
		}
		costSum += s.TotalCost()
		makespanSum += s.Makespan()
	}
	if res.Cost.Mean != costSum/n || res.Makespan.Mean != makespanSum/n {
		t.Fatalf("means not sum-then-divide-once: got (%.17g, %.17g), want (%.17g, %.17g)",
			res.Cost.Mean, res.Makespan.Mean, costSum/n, makespanSum/n)
	}
	// A deterministic template: every instance identical, so the mean must
	// equal the single-instance value up to one rounding step.
	det := ndwf.Template{Name: "det", Root: ndwf.Task{Name: "only", Work: 500}}
	wf, err := det.Sample(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := alg.Schedule(wf, opts)
	if err != nil {
		t.Fatal(err)
	}
	detRes, err := Measure(det, alg, opts, 1e6, Config{Samples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(detRes.Cost.Mean-s.TotalCost()) > 1e-12*s.TotalCost() {
		t.Fatalf("deterministic mean cost %v != %v", detRes.Cost.Mean, s.TotalCost())
	}
}
