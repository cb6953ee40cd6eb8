package sched

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag/dagtest"
	"repro/internal/validate"
	"repro/internal/workflows"
	"repro/internal/workload"
)

func TestHCOCStaysPrivateUnderLooseDeadline(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 3)
	// A huge deadline: everything runs on the free private pool.
	s, err := NewHCOC(4, 1e9, cloud.Large).Schedule(wf, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCost() != 0 {
		t.Errorf("loose deadline cost $%v, want 0 (all private)", s.TotalCost())
	}
	if err := validate.PlanSim(s); err != nil {
		t.Error(err)
	}
}

func TestHCOCOffloadsToMeetDeadline(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 3)
	opts := DefaultOptions()
	// Find the all-private makespan first.
	private, err := NewHCOC(2, 1e9, cloud.Large).Schedule(wf.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Demand a third off: HCOC must rent public VMs, meet the deadline,
	// and pay something for it.
	deadline := private.Makespan() * 0.67
	s, err := NewHCOC(2, deadline, cloud.Large).Schedule(wf.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() > deadline {
		t.Errorf("makespan %v misses deadline %v", s.Makespan(), deadline)
	}
	if s.TotalCost() <= 0 {
		t.Error("met a tighter deadline for free — offloading is broken")
	}
	if err := validate.PlanSim(s); err != nil {
		t.Error(err)
	}
}

func TestHCOCUnreachableDeadline(t *testing.T) {
	wf := workload.WorstCase.Apply(workflows.PaperSequential(), 0)
	s, err := NewHCOC(2, 1, cloud.XLarge).Schedule(wf, DefaultOptions())
	if !errors.Is(err, ErrDeadlineUnreachable) {
		t.Fatalf("err = %v, want ErrDeadlineUnreachable", err)
	}
	if s == nil {
		t.Fatal("no fallback schedule")
	}
}

func TestHCOCPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"pool":     func() { NewHCOC(0, 100, cloud.Small) },
		"deadline": func() { NewHCOC(2, 0, cloud.Small) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHCOCTighterDeadlineCostsMore(t *testing.T) {
	// The paper's framing of HCOC: cost optimization under a deadline —
	// tighter deadlines monotonically buy more public capacity.
	wf := workload.Pareto.Apply(workflows.PaperMapReduce(), 9)
	opts := DefaultOptions()
	private, err := NewHCOC(2, 1e9, cloud.Large).Schedule(wf.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := private.Makespan()
	prevCost := -1.0
	for _, frac := range []float64{1.0, 0.8, 0.6} {
		s, err := NewHCOC(2, base*frac, cloud.Large).Schedule(wf.Clone(), opts)
		if err != nil && !errors.Is(err, ErrDeadlineUnreachable) {
			t.Fatal(err)
		}
		if err == nil && s.Makespan() > base*frac {
			t.Errorf("deadline %v not met: %v", base*frac, s.Makespan())
		}
		if s.TotalCost() < prevCost-1e-9 {
			t.Errorf("tighter deadline got cheaper: %v after %v", s.TotalCost(), prevCost)
		}
		prevCost = s.TotalCost()
	}
}

func TestPrepaidVMsInvisibleInBilling(t *testing.T) {
	wf := workload.BestCase.Apply(workflows.CSTEM(), 0)
	s, err := NewHCOC(3, 1e9, cloud.Small).Schedule(wf, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalCost() != 0 || s.IdleTime() != 0 {
		t.Errorf("prepaid-only schedule bills cost %v, idle %v", s.TotalCost(), s.IdleTime())
	}
	for _, vm := range s.VMs {
		if len(vm.Slots) > 0 && !vm.Prepaid {
			t.Error("public VM rented under a loose deadline")
		}
	}
}

func TestPCHClustersArePaths(t *testing.T) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 3)
	clusters := pathClusters(wf, cloud.NewPlatform(), cloud.Small)

	seen := make([]bool, wf.Len())
	total := 0
	for _, cluster := range clusters {
		if len(cluster) == 0 {
			t.Fatal("empty cluster")
		}
		for i, id := range cluster {
			if seen[id] {
				t.Fatalf("task %d in two clusters", id)
			}
			seen[id] = true
			total++
			if i > 0 {
				if _, ok := wf.Data(cluster[i-1], id); !ok {
					t.Fatalf("cluster break: %d -> %d is not an edge", cluster[i-1], id)
				}
			}
		}
	}
	if total != wf.Len() {
		t.Fatalf("clusters cover %d of %d tasks", total, wf.Len())
	}
}

func TestPCHChainIsOneCluster(t *testing.T) {
	wf := dagtest.Chain(6, 500)
	clusters := pathClusters(wf, cloud.NewPlatform(), cloud.Small)
	if len(clusters) != 1 || len(clusters[0]) != 6 {
		t.Errorf("chain clusters = %v", clusters)
	}
}
