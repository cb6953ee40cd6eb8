package sim_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/validate"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// These tests hold the simulator to the planner through validate.PlanSim,
// the fault-free oracle: replayed with zero boot time, a schedule must
// show exactly the times, cost and idle time the planner computed, and a
// schedule tampered with after planning must be rejected. The three
// TestVerifyDetects* tampers break a static invariant, so PlanSim's
// validate.Schedule half rejects them before the replay; validate's
// TestPlanSimDetectsLateStart covers a tamper only the replay can see.

func mustSchedule(t *testing.T, alg sched.Algorithm, w *dag.Workflow) *plan.Schedule {
	t.Helper()
	s, err := alg.Schedule(w, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVerifyAgreesWithPlannerAcrossCatalog(t *testing.T) {
	// The central integration check: for every paper workflow x scenario x
	// strategy, the event-driven execution must observe exactly the times,
	// cost and idle the planner computed.
	for name, wf := range workflows.Paper() {
		for _, sc := range workload.Scenarios() {
			w := sc.Apply(wf, 99)
			for _, alg := range sched.Catalog() {
				s := mustSchedule(t, alg, w.Clone())
				if err := validate.PlanSim(s); err != nil {
					t.Errorf("%s/%v/%s: %v", name, sc, alg.Name(), err)
				}
			}
		}
	}
}

// Property: planner/simulator agreement holds on random DAGs under every
// catalog strategy.
func TestQuickVerifyRandomDAGs(t *testing.T) {
	cat := sched.Catalog()
	f := func(seed uint64) bool {
		cfg := dagtest.DefaultConfig()
		cfg.MaxTasks = 20
		w := dagtest.Random(seed, cfg)
		for _, alg := range cat {
			s, err := alg.Schedule(w.Clone(), sched.DefaultOptions())
			if err != nil {
				t.Logf("%s: schedule: %v", alg.Name(), err)
				return false
			}
			if err := validate.PlanSim(s); err != nil {
				t.Logf("%s: %v", alg.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSimHandlesDataTransfersInReadyTimes(t *testing.T) {
	// A cross-VM edge with real data must delay the consumer by the
	// transfer time in both planner and simulator.
	w := dag.New("xfer")
	a := w.AddTask("a", 100)
	b := w.AddTask("b", 100)
	w.AddEdge(a, b, 1<<30)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := mustSchedule(t, sched.Baseline(), w)
	if err := validate.PlanSim(s); err != nil {
		t.Error(err)
	}
	res, _ := sim.Run(s, sim.Config{})
	xfer := s.Platform.TransferTime(1<<30, cloud.Small, cloud.Small)
	if math.Abs(res.TaskStart[b]-(100+xfer)) > 1e-9 {
		t.Errorf("consumer starts at %v, want %v", res.TaskStart[b], 100+xfer)
	}
}

func TestSimBillsHeldLeases(t *testing.T) {
	// Held reservations (plan.VM.Held) are paid leases the replay never
	// touches: a held-but-empty VM bills its minimum BTU and a held tail
	// extends an active lease past its last slot. The simulator must agree
	// with the planner on both, or PlanSim rejects every speculative-
	// provisioning schedule.
	w := dagtest.Chain(2, 1000)
	s := mustSchedule(t, sched.Baseline(), w)
	base := s.RentalCost()
	s.VMs = append(s.VMs, &plan.VM{
		ID: plan.VMID(len(s.VMs)), Type: cloud.Small,
		Region: cloud.USEastVirginia, Held: 100,
	})
	s.VMs[0].Held = s.VMs[0].Span() + cloud.BTU + 1 // tail: one extra BTU
	if s.RentalCost() <= base {
		t.Fatal("held leases did not raise the planned cost; test is vacuous")
	}
	res, err := sim.Run(s, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !cloud.Close(res.RentalCost, s.RentalCost()) {
		t.Errorf("rental cost %v != planned %v", res.RentalCost, s.RentalCost())
	}
	if !cloud.Close(res.IdleTime, s.IdleTime()) {
		t.Errorf("idle %v != planned %v", res.IdleTime, s.IdleTime())
	}
	// The hold is billed but must not move the makespan: it is reservation,
	// not work.
	if !cloud.Close(res.Makespan, s.Makespan()) {
		t.Errorf("makespan %v != planned %v (held lease leaked into makespan)", res.Makespan, s.Makespan())
	}
	if err := validate.PlanSim(s); err != nil {
		t.Errorf("PlanSim rejects held leases: %v", err)
	}
}

func TestVerifyDetectsTamperedPlannedTimes(t *testing.T) {
	w := dagtest.ForkJoin(3, 400)
	s := mustSchedule(t, sched.Baseline(), w)
	s.Start[2] += 5 // planner lies about a start time
	if err := validate.PlanSim(s); err == nil {
		t.Error("tampered start time not detected")
	}
	s.Start[2] -= 5
	s.End[2] += 5
	if err := validate.PlanSim(s); err == nil {
		t.Error("tampered end time not detected")
	}
}

func TestVerifyDetectsWrongVMType(t *testing.T) {
	// Re-typing a VM after planning changes execution times; the replayed
	// makespan diverges from the planned one.
	w := dagtest.Chain(3, 1000)
	s := mustSchedule(t, sched.Baseline(), w)
	s.VMs[0].Type = cloud.XLarge
	if err := validate.PlanSim(s); err == nil {
		t.Error("re-typed VM not detected")
	}
}

func TestVerifyDetectsDroppedTransferData(t *testing.T) {
	// Inflate an edge's payload after planning: the simulator sees a later
	// ready time than the planner recorded.
	w := dag.New("pair")
	a := w.AddTask("a", 100)
	b := w.AddTask("b", 100)
	w.AddEdge(a, b, 0)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := mustSchedule(t, sched.Baseline(), w)
	w2 := dag.New("pair")
	w2.AddTask("a", 100)
	w2.AddTask("b", 100)
	w2.AddEdge(a, b, 8<<30)
	if err := w2.Freeze(); err != nil {
		t.Fatal(err)
	}
	s.Workflow = w2
	if err := validate.PlanSim(s); err == nil {
		t.Error("inflated edge data not detected")
	}
}
