package sla

import (
	"errors"
	"testing"

	"repro/internal/ndwf"
	"repro/internal/sched"
)

// estimate is evaluate for one strategy, the pass CheapestMeeting runs
// over its whole list.
func estimate(tpl ndwf.Template, alg sched.Algorithm, opts sched.Options,
	deadline float64, n int, seed uint64) (Estimate, error) {
	ests, err := evaluate(tpl, []sched.Algorithm{alg}, opts, deadline, n, seed)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

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
	est, err := estimate(template(), sched.Baseline(), opts, 800, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeetProbability < 0.4 || est.MeetProbability > 0.6 {
		t.Errorf("meet probability = %v, want ~0.5", est.MeetProbability)
	}
	// A generous deadline is always met.
	est, err = estimate(template(), sched.Baseline(), opts, 10000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeetProbability != 1 {
		t.Errorf("generous deadline met with p=%v", est.MeetProbability)
	}
	// An impossible deadline is never met.
	est, err = estimate(template(), sched.Baseline(), opts, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeetProbability != 0 {
		t.Errorf("impossible deadline met with p=%v", est.MeetProbability)
	}
}

func TestEvaluateFasterStrategyMeetsMore(t *testing.T) {
	opts := sched.DefaultOptions()
	slow, err := estimate(template(), sched.Baseline(), opts, 900, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := estimate(template(), sched.NewGain(), opts, 900, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeetProbability <= slow.MeetProbability {
		t.Errorf("GAIN meets %v <= baseline %v", fast.MeetProbability, slow.MeetProbability)
	}
	if fast.MeanCost <= slow.MeanCost {
		t.Errorf("GAIN cost %v <= baseline %v — the speed must be paid for", fast.MeanCost, slow.MeanCost)
	}
}

func TestCheapestMeetingPicksCheapQualifier(t *testing.T) {
	opts := sched.DefaultOptions()
	algs := []sched.Algorithm{
		sched.Baseline(),
		sched.NewAllPar1LnS(), // cheap, same makespan profile here
		sched.NewGain(),       // fast, expensive
	}
	// Deadline everyone meets: the cheapest strategy wins.
	best, all, err := CheapestMeeting(template(), algs, opts, 10000, 1.0, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("estimates = %d", len(all))
	}
	for _, est := range all {
		if best.MeanCost > est.MeanCost+1e-9 && est.MeetProbability >= 1.0 {
			t.Errorf("picked %s ($%v) over cheaper qualifier %s ($%v)",
				best.Strategy, best.MeanCost, est.Strategy, est.MeanCost)
		}
	}
	// Unreachable target: ErrNoStrategyMeets with the best effort.
	_, _, err = CheapestMeeting(template(), algs, opts, 1, 1.0, 20, 3)
	if !errors.Is(err, ErrNoStrategyMeets) {
		t.Errorf("err = %v, want ErrNoStrategyMeets", err)
	}
}

func TestValidation(t *testing.T) {
	opts := sched.DefaultOptions()
	if _, err := estimate(template(), sched.Baseline(), opts, 0, 10, 1); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := estimate(template(), sched.Baseline(), opts, 100, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, _, err := CheapestMeeting(template(), nil, opts, 100, 0.5, 10, 1); err == nil {
		t.Error("empty strategy list accepted")
	}
	if _, _, err := CheapestMeeting(template(), []sched.Algorithm{sched.Baseline()}, opts, 100, 1.5, 10, 1); err == nil {
		t.Error("bad target accepted")
	}
}
