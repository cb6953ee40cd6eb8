package sim

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/plan"
	"repro/internal/provision"
	"repro/internal/sched"
)

func mustSchedule(t *testing.T, alg sched.Algorithm, w *dag.Workflow) *plan.Schedule {
	t.Helper()
	s, err := alg.Schedule(w, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSimpleChain(t *testing.T) {
	w := dagtest.Chain(3, 1000)
	s := mustSchedule(t, sched.Baseline(), w)
	res, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-3000) > 1e-9 {
		t.Errorf("makespan = %v, want 3000", res.Makespan)
	}
	if res.Transfers != 2 {
		t.Errorf("transfers = %d, want 2 (OneVMperTask chain)", res.Transfers)
	}
	if res.Events == 0 {
		t.Error("no events dispatched")
	}
}

func TestRunRejectsNegativeBoot(t *testing.T) {
	w := dagtest.Chain(1, 10)
	s := mustSchedule(t, sched.Baseline(), w)
	if _, err := Run(s, Config{BootTime: -1}); err == nil {
		t.Error("negative boot time accepted")
	}
}

func TestBootTimeDelaysEverything(t *testing.T) {
	w := dagtest.Chain(2, 1000)
	s := mustSchedule(t, sched.Baseline(), w) // one VM per task
	const boot = 120
	res, err := Run(s, Config{BootTime: boot})
	if err != nil {
		t.Fatal(err)
	}
	// First task waits for its VM's boot; the second VM boots only once
	// the input arrives, adding a second boot delay on the chain.
	if math.Abs(res.TaskStart[0]-boot) > 1e-9 {
		t.Errorf("task 0 starts at %v, want %v", res.TaskStart[0], float64(boot))
	}
	if res.Makespan <= s.Makespan()+boot-1e-9 {
		t.Errorf("boot makespan %v not above pre-booted %v + one boot", res.Makespan, s.Makespan())
	}
	wantMk := 2*boot + 2000.0
	if math.Abs(res.Makespan-wantMk) > 1e-6 {
		t.Errorf("makespan = %v, want %v (two boots on the critical chain)", res.Makespan, wantMk)
	}
}

func TestBootTimeZeroMatchesPlanned(t *testing.T) {
	w := dagtest.ForkJoin(4, 700)
	s := mustSchedule(t, sched.NewAllPar1LnS(), w)
	res, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-s.Makespan()) > 1e-9 {
		t.Errorf("makespan %v != planned %v", res.Makespan, s.Makespan())
	}
	if math.Abs(res.RentalCost-s.RentalCost()) > 1e-9 {
		t.Errorf("cost %v != planned %v", res.RentalCost, s.RentalCost())
	}
	if math.Abs(res.IdleTime-s.IdleTime()) > 1e-9 {
		t.Errorf("idle %v != planned %v", res.IdleTime, s.IdleTime())
	}
}

func TestCrossVMTransfersCounted(t *testing.T) {
	w := dagtest.ForkJoin(3, 100) // 5 tasks, 6 edges
	s := mustSchedule(t, sched.Baseline(), w)
	res, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// OneVMperTask: every edge crosses VMs.
	if res.Transfers != 6 {
		t.Errorf("transfers = %d, want 6", res.Transfers)
	}
	// Single VM: no transfers at all.
	s2 := mustSchedule(t, sched.NewHEFT(provision.StartParExceed, cloud.Small), w.Clone())
	res2, err := Run(s2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.VMCount() == 1 && res2.Transfers != 0 {
		t.Errorf("single-VM schedule reported %d transfers", res2.Transfers)
	}
}
