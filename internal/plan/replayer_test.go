package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/market"
	"repro/internal/stats"
)

// diamondAssignment splits the diamond across two VMs: the spine on vm0,
// the off-path branch on vm1.
func diamondAssignment() Assignment {
	return Assignment{
		Types:  []cloud.InstanceType{cloud.Small, cloud.Medium},
		Queues: [][]dag.TaskID{{0, 1, 3}, {2}},
	}
}

func TestReplayerCostMatchesReplay(t *testing.T) {
	for _, preset := range []string{"none", "ondemand-sec", "spot", "warm"} {
		m, err := market.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		wf := newDiamond(t)
		rp, err := NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, m)
		if err != nil {
			t.Fatal(err)
		}
		a := diamondAssignment()
		sched, err := rp.Replay(a)
		if err != nil {
			t.Fatalf("%s: Replay: %v", preset, err)
		}
		want := sched.TotalCost()
		// Twice: the second call runs entirely on reused scratch.
		for i := 0; i < 2; i++ {
			got, err := rp.Cost(a)
			if err != nil {
				t.Fatalf("%s: Cost #%d: %v", preset, i, err)
			}
			if got != want {
				t.Errorf("%s: Cost #%d = %v, Replay cost %v", preset, i, got, want)
			}
		}
	}
}

func TestReplayerRejectsBadAssignment(t *testing.T) {
	wf := newDiamond(t)
	rp, err := NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Task 3 placed twice, task 2 never placed.
	bad := Assignment{
		Types:  []cloud.InstanceType{cloud.Small, cloud.Small},
		Queues: [][]dag.TaskID{{0, 1, 3}, {3}},
	}
	if _, err := rp.Cost(bad); err == nil {
		t.Error("Cost accepted a double-placed task")
	}
	if _, err := rp.Replay(bad); err == nil {
		t.Error("Replay accepted a double-placed task")
	}
}

func TestReplayerPrepaidMatchesBuilder(t *testing.T) {
	m, err := market.Preset("warm")
	if err != nil {
		t.Fatal(err)
	}
	wf := newDiamond(t)
	a := diamondAssignment()
	a.Prepaid = []bool{false, true}
	rp, err := NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, m)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := rp.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.VMs[1].Prepaid || sched.VMs[1].Lease != nil {
		t.Errorf("prepaid VM carries market terms: %+v", sched.VMs[1])
	}
	got, err := rp.Cost(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := sched.TotalCost(); got != want {
		t.Errorf("prepaid Cost = %v, Replay cost %v", got, want)
	}
}

func TestBuilderAccessorsAndScheduleString(t *testing.T) {
	wf := newDiamond(t)
	p := cloud.NewPlatform()
	b := NewBuilder(wf, p, cloud.USEastVirginia)
	if b.Workflow() != wf || b.p != p || b.region != cloud.USEastVirginia {
		t.Error("builder accessors disagree with construction")
	}
	b.SetMarket(nil) // no-op, keeps legacy economics
	if b.market != nil {
		t.Error("nil SetMarket installed a model")
	}
	vm0 := b.NewVM(cloud.Small)
	vm1 := b.NewPrepaidVM(cloud.Medium)
	if !vm1.Prepaid || vm1.Lease != nil {
		t.Errorf("prepaid VM: %+v", vm1)
	}
	if got := b.vms; len(got) != 2 || got[0] != vm0 || got[1] != vm1 {
		t.Errorf("vms = %v", got)
	}
	b.PlaceOn(0, vm0)
	b.PlaceOn(1, vm0)
	b.PlaceOn(2, vm1)
	b.PlaceOn(3, vm0)
	if b.VMOf(3) != vm0 {
		t.Errorf("VMOf(3) = %v", b.VMOf(3))
	}
	if ft := b.end[3]; ft <= 0 {
		t.Errorf("finish time of task 3 = %v", ft)
	}
	s := b.Done()
	if s.TaskVM(2) != vm1 {
		t.Errorf("TaskVM(2) = %v", s.TaskVM(2))
	}
	str := s.String()
	if !strings.Contains(str, "schedule{vms: 2") || !strings.Contains(str, "makespan:") {
		t.Errorf("Schedule.String() = %q", str)
	}
}

// sameTimeline reports the first task or VM where the loaded state of rp
// differs from the full placement in ref.
func sameTimeline(rp, ref *Replayer) error {
	for t := range ref.b.start {
		if rp.b.start[t] != ref.b.start[t] || rp.b.end[t] != ref.b.end[t] {
			return fmt.Errorf("task %d: slot [%v, %v), full replay [%v, %v)",
				t, rp.b.start[t], rp.b.end[t], ref.b.start[t], ref.b.end[t])
		}
	}
	for i, vm := range ref.b.vms {
		if rp.b.vms[i].Type != vm.Type || rp.bills[i] != vm.Cost() {
			return fmt.Errorf("VM %d: %v billed %v, full replay %v billed %v",
				i, rp.b.vms[i].Type, rp.bills[i], vm.Type, vm.Cost())
		}
	}
	return nil
}

// TestRetypeTimelineMatchesCost checks the loaded state itself, not only
// its price: after every trial, and again after every undo, each task's
// slot and each VM's type and bill must equal those of a full Cost of
// the same assignment. Every third task does no work, so some retypes
// move no slot of their own and reach their successors only through the
// transfers, whose time depends on both ends' types.
func TestRetypeTimelineMatchesCost(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		wf := dagtest.Random(seed, dagtest.DefaultConfig())
		wf.SetWork(func(t dag.Task) float64 {
			if t.ID%3 == 0 {
				return 0
			}
			return t.Work
		})
		n := wf.Len()
		for _, name := range []string{"none", "spot", "warm"} {
			m, err := market.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, m)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, m)
			a := Assignment{Types: make([]cloud.InstanceType, n), Queues: make([][]dag.TaskID, n)}
			for i := range a.Queues {
				a.Queues[i] = []dag.TaskID{dag.TaskID(i)}
			}
			if _, err := rp.Load(a); err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(seed)
			check := func(step int, what string) {
				t.Helper()
				if _, err := ref.Cost(a); err != nil {
					t.Fatal(err)
				}
				if err := sameTimeline(rp, ref); err != nil {
					t.Fatalf("seed %d, %s, step %d, %s: %v", seed, name, step, what, err)
				}
			}
			for step := 0; step < 4*n; step++ {
				vm, typ := rng.Intn(n), cloud.InstanceType(rng.Intn(4))
				old := a.Types[vm]
				rp.Retype(vm, typ)
				a.Types[vm] = typ
				check(step, "trial")
				if rng.Intn(2) == 0 {
					rp.Keep()
					continue
				}
				rp.Undo()
				a.Types[vm] = old
				check(step, "undo")
			}
		}
	}
}
