package sla

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/stats"
)

func TestMeasureBasics(t *testing.T) {
	tpl := ndwf.Order()
	alg := sched.Baseline()
	res, err := Measure(tpl, alg, sched.DefaultOptions(), 3600, Config{Samples: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 50 || len(res.Makespans) != 50 || len(res.Costs) != 50 {
		t.Fatalf("wrong sample counts: %+v", res)
	}
	if res.Completed != 50 {
		t.Fatalf("fault-free run not fully completed: %d", res.Completed)
	}
	if res.MeetProbability < 0 || res.MeetProbability > 1 {
		t.Fatalf("illegal meet probability %v", res.MeetProbability)
	}
	if p := res.MeetProbability; p < res.MeetCI.Lo || p > res.MeetCI.Hi {
		t.Fatalf("point estimate %v outside Wilson interval [%v, %v]", p, res.MeetCI.Lo, res.MeetCI.Hi)
	}
	if res.Makespan.N != 50 || res.Cost.N != 50 {
		t.Fatalf("summaries not over all samples: %+v", res)
	}
	if res.Strategy != alg.Name() {
		t.Fatalf("strategy %q", res.Strategy)
	}
	if got := stats.NewECDF(res.Makespans).At(res.Makespan.Max); got != 1 {
		t.Fatalf("ECDF at max = %v", got)
	}
}

// TestMeasureWorkerCountInvariance is the bit-reproducibility contract:
// the entire Result — every float — is identical at any worker count.
func TestMeasureWorkerCountInvariance(t *testing.T) {
	tpl, err := ndwf.Named("montage3")
	if err != nil {
		t.Fatal(err)
	}
	alg, err := sched.ByName("AllParExceed-m")
	if err != nil {
		t.Fatal(err)
	}
	var base Result
	for i, workers := range []int{1, 3, 16} {
		res, err := Measure(tpl, alg, sched.DefaultOptions(), 5000,
			Config{Samples: 40, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("result differs at %d workers", workers)
		}
	}
}

// TestMeasureDeadlineAtSamplePoint pins the inclusive comparison: a
// deadline exactly on an observed makespan counts as met, mirroring
// stats.Percentile's closed upper clamp.
func TestMeasureDeadlineAtSamplePoint(t *testing.T) {
	// A deterministic template: every instance is the same chain, so all
	// makespans are equal and the deadline can land exactly on them.
	tpl := ndwf.Template{Name: "det", Root: ndwf.Seq{
		ndwf.Task{Name: "a", Work: 100},
		ndwf.Task{Name: "b", Work: 200},
	}}
	alg := sched.Baseline()
	probe, err := Measure(tpl, alg, sched.DefaultOptions(), 1, Config{Samples: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := probe.Makespan.Max
	res, err := Measure(tpl, alg, sched.DefaultOptions(), m, Config{Samples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met != 10 || res.MeetProbability != 1 {
		t.Fatalf("deadline exactly at sample point: met %d, p %v", res.Met, res.MeetProbability)
	}
	below, err := Measure(tpl, alg, sched.DefaultOptions(), math.Nextafter(m, 0), Config{Samples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if below.Met != 0 {
		t.Fatalf("deadline just below sample point: met %d", below.Met)
	}
}

func TestMeasureWithFaults(t *testing.T) {
	tpl := ndwf.Order()
	alg := sched.Baseline()
	fc := &fault.Config{TaskFailProb: 0.4, Recovery: fault.Fail, Seed: 5}
	res, err := Measure(tpl, alg, sched.DefaultOptions(), 1e6,
		Config{Samples: 40, Seed: 5, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= res.N {
		t.Fatalf("expected some aborted replays at 40%% fail prob with Fail recovery, completed %d/%d",
			res.Completed, res.N)
	}
	// Incomplete replays miss the deadline no matter how generous it is.
	if res.Met != res.Completed {
		t.Fatalf("with a huge deadline every completed run should meet: met %d, completed %d",
			res.Met, res.Completed)
	}
	// Same invariance contract under faults.
	again, err := Measure(tpl, alg, sched.DefaultOptions(), 1e6,
		Config{Samples: 40, Seed: 5, Faults: fc, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("faulty measurement differs across worker counts")
	}
}

func TestMeasureParanoid(t *testing.T) {
	tpl := ndwf.Order()
	if _, err := Measure(tpl, sched.Baseline(), sched.DefaultOptions(), 3600,
		Config{Samples: 10, Seed: 3, Paranoid: true}); err != nil {
		t.Fatalf("paranoid cross-check failed on a healthy schedule: %v", err)
	}
}

func TestMeasureRejectsBadInputs(t *testing.T) {
	tpl := ndwf.Order()
	if _, err := Measure(tpl, sched.Baseline(), sched.DefaultOptions(), 0, Config{Samples: 5}); err == nil {
		t.Error("no error for zero deadline")
	}
	if _, err := Measure(tpl, sched.Baseline(), sched.DefaultOptions(), 100, Config{}); err == nil {
		t.Error("no error for zero samples")
	}
	bad := ndwf.Template{Name: "bad"}
	if _, err := Measure(bad, sched.Baseline(), sched.DefaultOptions(), 100, Config{Samples: 5}); err == nil {
		t.Error("no error for invalid template")
	}
}
