package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag/dagtest"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// paretoSchedule plans one realistic workflow for the fault tests.
func paretoSchedule(t *testing.T, seed uint64) *plan.Schedule {
	t.Helper()
	wf := workload.Pareto.Apply(workflows.Montage(6), seed)
	return mustSchedule(t, sched.Baseline(), wf)
}

func TestZeroRateFaultsReproduceCleanRun(t *testing.T) {
	// A fault config with both rates at zero must be byte-identical to the
	// fault-free replay: same times, same billing, same event count.
	s := paretoSchedule(t, 7)
	clean, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(s, Config{Faults: &fault.Config{Recovery: fault.Resubmit, Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, faulty) {
		t.Errorf("zero-rate faulty run differs from clean run:\nclean  %+v\nfaulty %+v", clean, faulty)
	}
	if !clean.Completed || clean.CompletedTasks != s.Workflow.Len() {
		t.Errorf("clean run not marked completed: %+v", clean)
	}
}

func TestFaultyRunDeterminism(t *testing.T) {
	// Same seed + same fault config ⇒ identical event trace and metrics.
	s := paretoSchedule(t, 11)
	cfg := Config{Faults: &fault.Config{
		CrashRate: 2, TaskFailProb: 0.2, Recovery: fault.Resubmit, RebootS: 45, Seed: 4,
	}}
	a, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs with the same fault seed differ:\na %+v\nb %+v", a, b)
	}
	if a.VMCrashes == 0 && a.TaskFailures == 0 {
		t.Error("stress config injected no faults at all")
	}
}

func TestFaultSeedChangesOutcome(t *testing.T) {
	s := paretoSchedule(t, 11)
	mk := func(seed uint64) *Result {
		r, err := Run(s, Config{Faults: &fault.Config{
			CrashRate: 2, TaskFailProb: 0.2, Recovery: fault.Resubmit, Seed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for seed := uint64(1); seed < 50; seed++ {
		if !reflect.DeepEqual(mk(0), mk(seed)) {
			return // found a diverging seed, streams really depend on it
		}
	}
	t.Error("50 different fault seeds all produced identical runs")
}

func TestTransientFailureRetryRecovers(t *testing.T) {
	// Find a seed whose run both fails at least once and completes: the
	// retry policy must absorb the failure at a makespan/cost premium.
	s := paretoSchedule(t, 3)
	clean, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 200; seed++ {
		res, err := Run(s, Config{Faults: &fault.Config{
			TaskFailProb: 0.1, Recovery: fault.Retry, BackoffS: 10, Seed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.TaskFailures == 0 || !res.Completed {
			continue
		}
		if res.Retries != res.TaskFailures {
			t.Errorf("seed %d: retries %d != failures %d", seed, res.Retries, res.TaskFailures)
		}
		if res.WastedSeconds <= 0 {
			t.Errorf("seed %d: no wasted seconds despite %d failures", seed, res.TaskFailures)
		}
		if res.Makespan < clean.Makespan {
			t.Errorf("seed %d: faulty makespan %v < clean %v", seed, res.Makespan, clean.Makespan)
		}
		if res.RentalCost < clean.RentalCost-1e-9 {
			t.Errorf("seed %d: faulty cost %v < clean %v", seed, res.RentalCost, clean.RentalCost)
		}
		for id, end := range res.TaskEnd {
			if math.IsNaN(end) {
				t.Errorf("seed %d: completed run left task %d unfinished", seed, id)
			}
		}
		return
	}
	t.Fatal("no seed in [0, 200) produced a recovered failure")
}

func TestTransientFailureResubmitOpensFreshVM(t *testing.T) {
	s := paretoSchedule(t, 3)
	for seed := uint64(0); seed < 200; seed++ {
		res, err := Run(s, Config{Faults: &fault.Config{
			TaskFailProb: 0.1, Recovery: fault.Resubmit, RebootS: 30, Seed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.TaskFailures == 0 || !res.Completed {
			continue
		}
		if res.Resubmits != res.TaskFailures {
			t.Errorf("seed %d: resubmits %d != failures %d", seed, res.Resubmits, res.TaskFailures)
		}
		if res.ReplacementVMs < res.Resubmits {
			t.Errorf("seed %d: %d resubmits opened only %d replacement VMs",
				seed, res.Resubmits, res.ReplacementVMs)
		}
		return
	}
	t.Fatal("no seed in [0, 200) produced a recovered resubmission")
}

func TestCertainFailureExhaustsRetries(t *testing.T) {
	// TaskFailProb 1: every attempt fails, so the workflow must give up
	// after MaxRetries extra attempts and report the partial run.
	w := dagtest.Chain(3, 500)
	s := mustSchedule(t, sched.Baseline(), w)
	res, err := Run(s, Config{Faults: &fault.Config{
		TaskFailProb: 1, Recovery: fault.Retry, MaxRetries: 2, BackoffS: 5, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run with certain task failure completed")
	}
	if res.CompletedTasks != 0 {
		t.Errorf("CompletedTasks = %d, want 0", res.CompletedTasks)
	}
	if res.TaskFailures != 3 { // 1 initial + 2 retries on the entry task
		t.Errorf("TaskFailures = %d, want 3", res.TaskFailures)
	}
	if res.Retries != 2 {
		t.Errorf("Retries = %d, want 2", res.Retries)
	}
	if res.FailReason == "" {
		t.Error("failed run has no FailReason")
	}
	if res.RentalCost <= 0 {
		t.Error("failed run billed nothing despite burning lease time")
	}
}

func TestFailPolicyAbortsOnFirstFault(t *testing.T) {
	w := dagtest.Chain(3, 500)
	s := mustSchedule(t, sched.Baseline(), w)
	res, err := Run(s, Config{Faults: &fault.Config{
		TaskFailProb: 1, Recovery: fault.Fail, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.TaskFailures != 1 || res.Retries != 0 || res.Resubmits != 0 {
		t.Errorf("fail policy: %+v, want exactly one failure and no recovery", res)
	}
}

func TestVMCrashRecovery(t *testing.T) {
	// A crash-heavy sky over a long chain: crashes must occur and the
	// recovery must still finish the workflow on replacement VMs.
	w := dagtest.Chain(6, 2000)
	s := mustSchedule(t, sched.Baseline(), w)
	clean, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []fault.Recovery{fault.Retry, fault.Resubmit} {
		found := false
		for seed := uint64(0); seed < 300 && !found; seed++ {
			res, err := Run(s, Config{Faults: &fault.Config{
				CrashRate: 1.5, Recovery: rec, RebootS: 60, Seed: seed,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if res.VMCrashes == 0 || !res.Completed {
				continue
			}
			found = true
			if res.ReplacementVMs < 1 {
				t.Errorf("%v seed %d: crash recovered without a replacement VM", rec, seed)
			}
			if res.Makespan <= clean.Makespan {
				t.Errorf("%v seed %d: crashed makespan %v not above clean %v",
					rec, seed, res.Makespan, clean.Makespan)
			}
			if res.RentalCost <= clean.RentalCost {
				t.Errorf("%v seed %d: crashed cost %v not above clean %v (no fresh BTU paid?)",
					rec, seed, res.RentalCost, clean.RentalCost)
			}
		}
		if !found {
			t.Errorf("%v: no seed in [0, 300) produced a recovered crash", rec)
		}
	}
}

func TestCrashWithFailPolicyReportsPartialRun(t *testing.T) {
	w := dagtest.Chain(6, 2000)
	s := mustSchedule(t, sched.Baseline(), w)
	for seed := uint64(0); seed < 300; seed++ {
		res, err := Run(s, Config{Faults: &fault.Config{
			CrashRate: 1.5, Recovery: fault.Fail, Seed: seed,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.VMCrashes == 0 {
			continue
		}
		if res.Completed {
			t.Fatalf("seed %d: crash under recovery=fail still completed", seed)
		}
		if res.CompletedTasks >= s.Workflow.Len() {
			t.Errorf("seed %d: CompletedTasks = %d of %d", seed, res.CompletedTasks, s.Workflow.Len())
		}
		return
	}
	t.Fatal("no seed in [0, 300) crashed a VM")
}

func TestFaultConfigValidationSurfacesInRun(t *testing.T) {
	s := paretoSchedule(t, 1)
	if _, err := Run(s, Config{Faults: &fault.Config{CrashRate: -2}}); err == nil {
		t.Error("negative crash rate accepted")
	}
	if _, err := Run(s, Config{Faults: &fault.Config{TaskFailProb: 2}}); err == nil {
		t.Error("task failure probability > 1 accepted")
	}
}

func TestFaultsAcrossCatalogStrategiesComplete(t *testing.T) {
	// Every strategy's plan must survive the faulty replay machinery —
	// recovery interacts with arbitrary VM/queue shapes.
	wf := workload.Pareto.Apply(workflows.Montage(6), 5)
	for _, alg := range sched.Catalog() {
		s, err := alg.Schedule(wf.Clone(), sched.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		res, err := Run(s, Config{Faults: &fault.Config{
			CrashRate: 0.5, TaskFailProb: 0.05, Recovery: fault.Resubmit, RebootS: 30, Seed: 13,
		}})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.Completed && res.FailReason == "" {
			t.Errorf("%s: incomplete without FailReason", alg.Name())
		}
	}
}

// Recording changes no result: under the hostile preset plus spot
// preemptions, with each recovery policy and each market preset, every
// catalog strategy's replay (and a private-cloud HCOC one's) returns the
// same Result with and without a Collector. The comparison is on the %+v
// form, which spells every float exactly and equates the NaN end times
// of an aborted run's unfinished tasks.
func TestRecorderChangesNoResult(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.Montage(6), 5)
	hostile, err := fault.Preset("hostile")
	if err != nil {
		t.Fatal(err)
	}
	hostile.SpotPreemptRate = 1
	faults := 0
	check := func(name string, s *plan.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rc := range fault.Recoveries() {
			fc := hostile
			fc.Recovery, fc.Seed = rc, 13
			bare, err := Run(s, Config{Faults: &fc})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, rc, err)
			}
			var col obs.Collector
			recorded, err := Run(s, Config{Faults: &fc, Recorder: &col})
			if err != nil {
				t.Fatalf("%s/%s recorded: %v", name, rc, err)
			}
			if len(col.Events) == 0 {
				t.Fatalf("%s/%s: the collector saw no events", name, rc)
			}
			if got, want := fmt.Sprintf("%+v", *recorded), fmt.Sprintf("%+v", *bare); got != want {
				t.Errorf("%s/%s: recording changes the result:\n got %s\nwant %s", name, rc, got, want)
			}
			faults += bare.VMCrashes + bare.TaskFailures + bare.SpotPreemptions
		}
	}
	for _, mk := range market.PresetNames() {
		opts := sched.DefaultOptions()
		if opts.Market, err = market.Preset(mk); err != nil {
			t.Fatal(err)
		}
		for _, alg := range sched.Catalog() {
			s, err := alg.Schedule(wf, opts)
			check(mk+"/"+alg.Name(), s, err)
		}
		// HCOC keeps this workflow on its private, prepaid VMs.
		s, err := sched.NewHCOC(2, 1e9, cloud.Large).Schedule(wf, opts)
		check(mk+"/HCOC", s, err)
	}
	if faults == 0 {
		t.Error("the hostile preset injected nothing")
	}
}
