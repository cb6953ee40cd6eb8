package plan

import (
	"fmt"
	"slices"
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

// singletons puts task i alone on VM i, with types cycling from small.
func singletons(wf *dag.Workflow) Assignment {
	a := Assignment{
		Types:  make([]cloud.InstanceType, wf.Len()),
		Queues: make([][]dag.TaskID, wf.Len()),
	}
	for i := range a.Queues {
		a.Types[i] = cloud.InstanceType(i % 4)
		a.Queues[i] = []dag.TaskID{dag.TaskID(i)}
	}
	return a
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
		a := singletons(wf)
		sched, err := rp.Replay(a)
		if err != nil {
			t.Fatalf("%s: Replay: %v", preset, err)
		}
		want := sched.TotalCost()
		// Twice: the second call runs entirely on reused scratch.
		for i := 0; i < 2; i++ {
			got, err := rp.Load(a)
			if err != nil {
				t.Fatalf("%s: Load #%d: %v", preset, i, err)
			}
			if got != want {
				t.Errorf("%s: Load #%d = %v, Replay cost %v", preset, i, got, want)
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
	if _, err := rp.Replay(bad); err == nil {
		t.Error("Replay accepted a double-placed task")
	}
	one := singletons(wf)
	one.Queues[2][0] = 3
	if _, err := rp.Load(one); err == nil {
		t.Error("Load accepted a double-placed task")
	}
}

// TestReplayerPrepaidMatchesBuilder replays a hybrid assignment under a
// warm pool and requires the schedule a Builder gives when its planner
// rents the same VMs and places the same queues.
func TestReplayerPrepaidMatchesBuilder(t *testing.T) {
	m, err := market.Preset("warm")
	if err != nil {
		t.Fatal(err)
	}
	wf := newDiamond(t)
	p := cloud.NewPlatform()
	a := diamondAssignment()
	a.Prepaid = []bool{false, true}
	rp, err := NewReplayer(wf, p, cloud.USEastVirginia, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !got.VMs[1].Prepaid || got.VMs[1].Lease != nil {
		t.Errorf("prepaid VM carries market terms: %+v", got.VMs[1])
	}
	b := NewBuilder(wf, p, cloud.USEastVirginia)
	b.SetMarket(m)
	vm0, vm1 := b.NewVM(cloud.Small), b.NewPrepaidVM(cloud.Medium)
	for _, task := range []dag.TaskID{0, 1, 2, 3} {
		if task == 2 {
			b.PlaceOn(task, vm1)
		} else {
			b.PlaceOn(task, vm0)
		}
	}
	if err := sameSchedule(got, b.Done()); err != nil {
		t.Error(err)
	}
}

// sameSchedule reports the first task or VM where got differs from want:
// each task's slot and VM, and each VM's type, lease start, hold, lease
// terms and cost, compared bit for bit.
func sameSchedule(got, want *Schedule) error {
	if len(got.VMs) != len(want.VMs) {
		return fmt.Errorf("%d VMs, want %d", len(got.VMs), len(want.VMs))
	}
	for t := range want.Start {
		if got.Start[t] != want.Start[t] || got.End[t] != want.End[t] || got.Placement[t] != want.Placement[t] {
			return fmt.Errorf("task %d: [%v, %v) on VM %d, want [%v, %v) on VM %d", t,
				got.Start[t], got.End[t], got.Placement[t], want.Start[t], want.End[t], want.Placement[t])
		}
	}
	for i, w := range want.VMs {
		g := got.VMs[i]
		if g.ID != w.ID || g.Type != w.Type || g.Prepaid != w.Prepaid || !slices.Equal(g.Slots, w.Slots) {
			return fmt.Errorf("VM %d: %v/%v %v, want %v/%v %v", i, g.Type, g.Prepaid, g.Slots, w.Type, w.Prepaid, w.Slots)
		}
		if g.LeaseStart() != w.LeaseStart() || g.Held != w.Held || g.Cost() != w.Cost() {
			return fmt.Errorf("VM %d: lease from %v held %v costs %v, want from %v held %v costs %v",
				i, g.LeaseStart(), g.Held, g.Cost(), w.LeaseStart(), w.Held, w.Cost())
		}
		if (g.Lease == nil) != (w.Lease == nil) || g.Lease != nil && *g.Lease != *w.Lease {
			return fmt.Errorf("VM %d: lease terms %+v, want %+v", i, g.Lease, w.Lease)
		}
	}
	return nil
}

// TestSingletonPlacementMatchesGreedy holds the topological placement of
// one-task-per-VM assignments to the greedy ready-head scan, slot for
// slot, over random DAGs under every market preset, with prepaid VMs, VM
// order shuffled against task order, and empty queues in between.
func TestSingletonPlacementMatchesGreedy(t *testing.T) {
	p := cloud.NewPlatform()
	for seed := uint64(0); seed < 25; seed++ {
		wf := dagtest.Random(seed, dagtest.DefaultConfig())
		rng := stats.NewRNG(seed)
		order := make([]int, wf.Len())
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		var a Assignment
		for _, i := range order {
			for rng.Intn(4) == 0 {
				a.Types = append(a.Types, cloud.Medium)
				a.Queues = append(a.Queues, nil)
				a.Prepaid = append(a.Prepaid, rng.Intn(2) == 0)
			}
			a.Types = append(a.Types, cloud.InstanceType(rng.Intn(4)))
			a.Queues = append(a.Queues, []dag.TaskID{dag.TaskID(i)})
			a.Prepaid = append(a.Prepaid, rng.Intn(6) == 0)
		}
		for _, name := range market.PresetNames() {
			m, err := market.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := NewReplayer(wf, p, cloud.USEastVirginia, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rp.Replay(a)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(wf, p, cloud.USEastVirginia)
			b.SetMarket(m)
			for i, typ := range a.Types {
				if a.Prepaid[i] {
					b.NewPrepaidVM(typ)
				} else {
					b.NewVM(typ)
				}
			}
			if err := b.placeGreedy(a, make([]int, len(a.Queues))); err != nil {
				t.Fatal(err)
			}
			if err := sameSchedule(got, b.Done()); err != nil {
				t.Fatalf("seed %d, %s: topological placement differs from the greedy scan: %v", seed, name, err)
			}
		}
	}
}

// TestReplayOwnsNoScratch replays a schedule, then drives the same
// replayer through another Replay, a Load, a kept and an undone Retype,
// and requires the first schedule to be unchanged.
func TestReplayOwnsNoScratch(t *testing.T) {
	wf := dagtest.Random(5, dagtest.DefaultConfig())
	m, err := market.Preset("warm")
	if err != nil {
		t.Fatal(err)
	}
	p := cloud.NewPlatform()
	rp, err := NewReplayer(wf, p, cloud.USEastVirginia, m)
	if err != nil {
		t.Fatal(err)
	}
	topo := slices.Clone(wf.TopoOrder())
	for _, a := range []Assignment{singletons(wf), {
		Types:  []cloud.InstanceType{cloud.Small, cloud.Large},
		Queues: [][]dag.TaskID{topo[:len(topo)/2], topo[len(topo)/2:]},
	}} {
		s, err := rp.Replay(a)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewReplayer(wf, p, cloud.USEastVirginia, m)
		want, _ := ref.Replay(a)
		if _, err := rp.Replay(singletons(wf)); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Load(singletons(wf)); err != nil {
			t.Fatal(err)
		}
		for vm := 0; vm < wf.Len(); vm++ {
			rp.Retype(vm, cloud.XLarge)
			if vm%2 == 0 {
				rp.Keep()
			} else {
				rp.Undo()
			}
		}
		if err := sameSchedule(s, want); err != nil {
			t.Errorf("%d queues: the replayer's later work changed a returned schedule: %v", len(a.Queues), err)
		}
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
// differs from the full replay ref.
func sameTimeline(rp *Replayer, ref *Schedule) error {
	for t := range ref.Start {
		if rp.b.start[t] != ref.Start[t] || rp.b.end[t] != ref.End[t] {
			return fmt.Errorf("task %d: slot [%v, %v), full replay [%v, %v)",
				t, rp.b.start[t], rp.b.end[t], ref.Start[t], ref.End[t])
		}
	}
	for i, vm := range ref.VMs {
		if rp.b.vms[i].Type != vm.Type || rp.bills[i] != vm.Cost() {
			return fmt.Errorf("VM %d: %v billed %v, full replay %v billed %v",
				i, rp.b.vms[i].Type, rp.bills[i], vm.Type, vm.Cost())
		}
	}
	return nil
}

// TestRetypeTimelineMatchesCost checks the loaded state itself, not only
// its price: after every trial, and again after every undo, each task's
// slot and each VM's type and bill must equal those of a full Replay of
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
				s, err := ref.Replay(a)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTimeline(rp, s); err != nil {
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
