package plan

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
)

func newDiamond(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("diamond")
	a := w.AddTask("a", 100)
	b := w.AddTask("b", 200)
	c := w.AddTask("c", 300)
	d := w.AddTask("d", 400)
	w.AddEdge(a, b, 0)
	w.AddEdge(a, c, 0)
	w.AddEdge(b, d, 0)
	w.AddEdge(c, d, 0)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuilderSequentialPlacement(t *testing.T) {
	w := newDiamond(t)
	b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	vm := b.NewVM(cloud.Small)
	for _, id := range w.TopoOrder() {
		b.PlaceOn(id, vm)
	}
	s := b.Done()
	if got := s.Makespan(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("makespan = %v, want 1000", got)
	}
	if s.VMCount() != 1 {
		t.Errorf("VMCount = %d", s.VMCount())
	}
	// 1000 s on one small VM: 1 BTU = $0.08, idle = 3600-1000.
	if got := s.TotalCost(); math.Abs(got-0.08) > 1e-9 {
		t.Errorf("cost = %v, want 0.08", got)
	}
	if got := s.IdleTime(); math.Abs(got-2600) > 1e-9 {
		t.Errorf("idle = %v, want 2600", got)
	}
}

func TestBuilderParallelPlacement(t *testing.T) {
	w := newDiamond(t)
	b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	// a on vm0; b on vm1; c on vm0; d on vm0 (after c).
	vm0 := b.NewVM(cloud.Small)
	vm1 := b.NewVM(cloud.Small)
	b.PlaceOn(0, vm0) // a: [0, 100)
	b.PlaceOn(1, vm1) // b: [100, 300)
	b.PlaceOn(2, vm0) // c: [100, 400)
	b.PlaceOn(3, vm0) // d: waits for b(300) and c(400) -> [400, 800)
	s := b.Done()
	if math.Abs(s.Start[3]-400) > 1e-9 || math.Abs(s.End[3]-800) > 1e-9 {
		t.Errorf("d = [%v, %v), want [400, 800)", s.Start[3], s.End[3])
	}
	if s.VMCount() != 2 {
		t.Errorf("VMCount = %d", s.VMCount())
	}
	// vm1 lease [100, 300): busy 200, paid 3600 -> idle 3400.
	// vm0 lease [0, 800): busy 100+300+400=800, paid 3600 -> idle 2800.
	if got := s.IdleTime(); math.Abs(got-6200) > 1e-9 {
		t.Errorf("idle = %v, want 6200", got)
	}
}

func TestExecTimeUsesSpeedup(t *testing.T) {
	w := newDiamond(t)
	b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	if got := b.ExecTime(3, cloud.Medium); math.Abs(got-250) > 1e-9 {
		t.Errorf("ExecTime = %v, want 250", got)
	}
}

func TestTransferDelaysCrossVMDependency(t *testing.T) {
	w := dag.New("pair")
	a := w.AddTask("a", 100)
	bt := w.AddTask("b", 100)
	w.AddEdge(a, bt, 1e9) // 1 GB-ish payload
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	p := cloud.NewPlatform()
	b := NewBuilder(w, p, cloud.USEastVirginia)
	vm0 := b.NewVM(cloud.Small)
	vm1 := b.NewVM(cloud.Small)
	b.PlaceOn(a, vm0)
	xfer := p.TransferTime(1e9, cloud.Small, cloud.Small)
	if got := b.ReadyOn(bt, vm1); math.Abs(got-(100+xfer)) > 1e-9 {
		t.Errorf("ReadyOn other VM = %v, want %v", got, 100+xfer)
	}
	if got := b.ReadyOn(bt, vm0); math.Abs(got-100) > 1e-9 {
		t.Errorf("ReadyOn same VM = %v, want 100", got)
	}
}

func TestFitsBTU(t *testing.T) {
	w := dag.New("three")
	a := w.AddTask("a", 3000)
	b1 := w.AddTask("b", 500)
	b2 := w.AddTask("c", 700)
	w.AddEdge(a, b1, 0)
	w.AddEdge(a, b2, 0)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	vm := b.NewVM(cloud.Small)
	if !b.FitsBTU(a, vm) {
		t.Error("empty VM must always fit")
	}
	b.PlaceOn(a, vm) // [0, 3000), paid boundary 3600
	if !b.FitsBTU(b1, vm) {
		t.Error("500s task should fit in remaining 600s of the BTU")
	}
	if b.FitsBTU(b2, vm) {
		t.Error("700s task must not fit in remaining 600s of the BTU")
	}
	b.PlaceOn(b1, vm) // [3000, 3500)
	if b.FitsBTU(b2, vm) {
		t.Error("after filling, 700s must not fit in remaining 100s")
	}
}

func TestPaidBoundaryEmptyVM(t *testing.T) {
	vm := &VM{Type: cloud.Small, Region: cloud.USEastVirginia}
	if !math.IsInf(vm.PaidBoundary(), 1) {
		t.Errorf("PaidBoundary of empty VM = %v, want +Inf", vm.PaidBoundary())
	}
	if vm.Cost() != 0 || vm.Idle() != 0 || vm.PaidSeconds() != 0 {
		t.Error("empty VM should bill nothing")
	}
}

func TestVMLeaseAccounting(t *testing.T) {
	vm := &VM{Type: cloud.Medium, Region: cloud.USEastVirginia}
	vm.Slots = []Slot{{Task: 0, Start: 100, End: 1100}, {Task: 1, Start: 2000, End: 4000}}
	if got := vm.Busy(); got != 3000 {
		t.Errorf("Busy = %v", got)
	}
	if got := vm.Span(); got != 3900 {
		t.Errorf("Span = %v", got)
	}
	if got := vm.PaidSeconds(); got != 2*cloud.BTU {
		t.Errorf("PaidSeconds = %v", got)
	}
	if got := vm.Idle(); got != 2*cloud.BTU-3000 {
		t.Errorf("Idle = %v", got)
	}
	if got := vm.Cost(); math.Abs(got-0.32) > 1e-9 {
		t.Errorf("Cost = %v, want 0.32", got)
	}
	if got := vm.PaidBoundary(); got != 100+7200 {
		t.Errorf("PaidBoundary = %v", got)
	}
}

func TestVMHeldLeaseAccounting(t *testing.T) {
	// A held lease with no slots bills like any other: minimum one BTU.
	vm := &VM{Type: cloud.Small, Region: cloud.USEastVirginia, Held: 10}
	if got := vm.Span(); got != 10 {
		t.Errorf("Span = %v, want 10", got)
	}
	if got := vm.PaidSeconds(); got != cloud.BTU {
		t.Errorf("PaidSeconds = %v, want one BTU", got)
	}
	if got := vm.Idle(); got != cloud.BTU {
		t.Errorf("Idle = %v, want one full BTU", got)
	}
	if vm.Cost() <= 0 {
		t.Errorf("Cost = %v, want > 0", vm.Cost())
	}
	// Held shorter than the slots changes nothing.
	vm = &VM{Type: cloud.Small, Region: cloud.USEastVirginia, Held: 5}
	vm.Slots = []Slot{{Task: 0, Start: 0, End: 1000}}
	if got := vm.LeaseEnd(); got != 1000 {
		t.Errorf("LeaseEnd = %v, want 1000 (slots dominate)", got)
	}
	// Held longer than the slots extends the lease.
	vm.Held = 4000
	if got := vm.LeaseEnd(); got != 4000 {
		t.Errorf("LeaseEnd = %v, want 4000 (hold dominates)", got)
	}
	if got := vm.PaidSeconds(); got != 2*cloud.BTU {
		t.Errorf("PaidSeconds = %v, want 2 BTU", got)
	}
}

func TestBusiestVM(t *testing.T) {
	w := dagtest.Chain(3, 100)
	b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
	vm0 := b.NewVM(cloud.Small)
	vm1 := b.NewVM(cloud.Small)
	b.PlaceOn(0, vm0)
	b.PlaceOn(1, vm1)
	b.PlaceOn(2, vm1)
	if got := b.BusiestVM(nil); got != vm1 {
		t.Errorf("BusiestVM = %v, want vm1", got.ID)
	}
	if got := b.BusiestVM(func(vm *VM) bool { return vm.ID == vm0.ID }); got != vm0 {
		t.Errorf("filtered BusiestVM = %v, want vm0", got.ID)
	}
	if got := b.BusiestVM(func(vm *VM) bool { return false }); got != nil {
		t.Errorf("BusiestVM with empty filter = %v, want nil", got.ID)
	}
}

func TestBuilderPanics(t *testing.T) {
	w := newDiamond(t)
	t.Run("place before predecessor", func(t *testing.T) {
		b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
		vm := b.NewVM(cloud.Small)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		b.PlaceOn(3, vm)
	})
	t.Run("double placement", func(t *testing.T) {
		b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
		vm := b.NewVM(cloud.Small)
		b.PlaceOn(0, vm)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		b.PlaceOn(0, vm)
	})
	t.Run("done with unplaced tasks", func(t *testing.T) {
		b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
		vm := b.NewVM(cloud.Small)
		b.PlaceOn(0, vm)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		b.Done()
	})
}

// replay is Replayer.Replay under the paper's economics.
func replay(wf *dag.Workflow, p *cloud.Platform, region cloud.Region, a Assignment) (*Schedule, error) {
	rp, err := NewReplayer(wf, p, region, nil)
	if err != nil {
		return nil, err
	}
	return rp.Replay(a)
}

func TestReplayMatchesBuilder(t *testing.T) {
	w := newDiamond(t)
	p := cloud.NewPlatform()
	b := NewBuilder(w, p, cloud.USEastVirginia)
	vm0 := b.NewVM(cloud.Small)
	vm1 := b.NewVM(cloud.Medium)
	b.PlaceOn(0, vm0)
	b.PlaceOn(1, vm1)
	b.PlaceOn(2, vm0)
	b.PlaceOn(3, vm0)
	orig := b.Done()

	re, err := replay(w, p, cloud.USEastVirginia, AssignmentOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.Makespan()-orig.Makespan()) > 1e-9 {
		t.Errorf("replay makespan = %v, want %v", re.Makespan(), orig.Makespan())
	}
	if math.Abs(re.TotalCost()-orig.TotalCost()) > 1e-9 {
		t.Errorf("replay cost = %v, want %v", re.TotalCost(), orig.TotalCost())
	}
	for id := range re.Placement {
		if re.Placement[id] != orig.Placement[id] {
			t.Errorf("task %d placement differs", id)
		}
	}
}

func TestReplayWithUpgradedType(t *testing.T) {
	w := dagtest.Chain(2, 1000)
	p := cloud.NewPlatform()
	a := Assignment{
		Types:  []cloud.InstanceType{cloud.Small},
		Queues: [][]dag.TaskID{{0, 1}},
	}
	s, err := replay(w, p, cloud.USEastVirginia, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Makespan()-2000) > 1e-9 {
		t.Errorf("small makespan = %v", s.Makespan())
	}
	a.Types[0] = cloud.XLarge
	s2, err := replay(w, p, cloud.USEastVirginia, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.Makespan()-2000/2.7) > 1e-6 {
		t.Errorf("xlarge makespan = %v, want %v", s2.Makespan(), 2000/2.7)
	}
}

func TestReplayErrors(t *testing.T) {
	w := newDiamond(t)
	p := cloud.NewPlatform()
	region := cloud.USEastVirginia
	cases := map[string]Assignment{
		"length mismatch": {Types: []cloud.InstanceType{cloud.Small}, Queues: nil},
		"unknown task": {
			Types:  []cloud.InstanceType{cloud.Small},
			Queues: [][]dag.TaskID{{0, 1, 2, 99}},
		},
		"duplicate task": {
			Types:  []cloud.InstanceType{cloud.Small},
			Queues: [][]dag.TaskID{{0, 1, 1, 2}},
		},
		"missing task": {
			Types:  []cloud.InstanceType{cloud.Small},
			Queues: [][]dag.TaskID{{0, 1, 2}},
		},
		"deadlock": {
			Types:  []cloud.InstanceType{cloud.Small, cloud.Small},
			Queues: [][]dag.TaskID{{3, 0}, {1, 2}},
		},
	}
	for name, a := range cases {
		if _, err := replay(w, p, region, a); err == nil {
			t.Errorf("%s: Replay succeeded, want error", name)
		}
	}
}

func TestAssignmentClone(t *testing.T) {
	a := Assignment{
		Types:  []cloud.InstanceType{cloud.Small},
		Queues: [][]dag.TaskID{{0, 1}},
	}
	c := a.Clone()
	c.Types[0] = cloud.XLarge
	c.Queues[0][0] = 9
	if a.Types[0] != cloud.Small || a.Queues[0][0] != 0 {
		t.Error("Clone shares state with original")
	}
	// The clone's queues share one array; growing one must not reach the
	// next.
	two := Assignment{
		Types:  []cloud.InstanceType{cloud.Small, cloud.Small},
		Queues: [][]dag.TaskID{{0}, {1}},
	}.Clone()
	two.Queues[0] = append(two.Queues[0], 9)
	if two.Queues[1][0] != 1 {
		t.Errorf("appending to one cloned queue overwrote the next: %v", two.Queues)
	}
}

// Property: for random DAGs placed sequentially on one VM in topological
// order, makespan equals total work and cost equals ceil(work/BTU)·price.
func TestQuickSingleVMSchedule(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := dagtest.DefaultConfig()
		cfg.MaxData = 0 // pure control edges: no transfer gaps
		w := dagtest.Random(seed, cfg)
		b := NewBuilder(w, cloud.NewPlatform(), cloud.USEastVirginia)
		vm := b.NewVM(cloud.Small)
		for _, id := range w.TopoOrder() {
			b.PlaceOn(id, vm)
		}
		s := b.Done()
		wantCost := cloud.LeaseCost(w.TotalWork(), cloud.Small, cloud.USEastVirginia)
		return math.Abs(s.Makespan()-w.TotalWork()) < 1e-6 &&
			math.Abs(s.TotalCost()-wantCost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: replaying any valid builder-produced schedule reproduces its
// makespan and cost exactly.
func TestQuickReplayRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		w := dagtest.Random(seed, dagtest.DefaultConfig())
		p := cloud.NewPlatform()
		b := NewBuilder(w, p, cloud.USEastVirginia)
		// Scatter tasks across 3 VMs round-robin in topo order.
		vms := []*VM{b.NewVM(cloud.Small), b.NewVM(cloud.Medium), b.NewVM(cloud.Large)}
		for i, id := range w.TopoOrder() {
			b.PlaceOn(id, vms[i%3])
		}
		orig := b.Done()
		re, err := replay(w, p, cloud.USEastVirginia, AssignmentOf(orig))
		if err != nil {
			return false
		}
		return math.Abs(re.Makespan()-orig.Makespan()) < 1e-6 &&
			math.Abs(re.TotalCost()-orig.TotalCost()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
