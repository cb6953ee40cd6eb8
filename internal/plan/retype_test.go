package plan_test

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/fuzzcheck"
	"repro/internal/market"
	"repro/internal/plan"
)

// TestRetypeMatchesCost runs random retype walks, mixing keeps and undos,
// over random DAGs under every market preset: half of them with work
// quantized to BTU divisors, the other half with zero-work tasks, whose
// retype moves no slot of their own but still changes their successors'
// transfers. Every trial's price must equal Replay(a).TotalCost() of the
// same assignment bit for bit.
func TestRetypeMatchesCost(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		c := fuzzcheck.Random(11, i)
		c.BTUWork, c.ZeroWork = i%2 == 0, i%2 == 1
		if err := fuzzcheck.CheckRetype(c); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// oneVMPerTask is the upgrade loops' assignment shape: task i alone on VM
// i, every VM small.
func oneVMPerTask(wf *dag.Workflow) plan.Assignment {
	a := plan.Assignment{
		Types:  make([]cloud.InstanceType, wf.Len()),
		Queues: make([][]dag.TaskID, wf.Len()),
	}
	for i := range a.Queues {
		a.Queues[i] = []dag.TaskID{dag.TaskID(i)}
	}
	return a
}

// TestRetypeAllocatesNothing pins the trial's cost: pricing a retype and
// keeping or undoing it reuses the replayer's buffers.
func TestRetypeAllocatesNothing(t *testing.T) {
	wf := dagtest.Random(3, dagtest.DefaultConfig())
	for _, name := range []string{"none", "spot", "warm"} {
		m, err := market.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plan.NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Load(oneVMPerTask(wf)); err != nil {
			t.Fatal(err)
		}
		vm := wf.Len() / 2
		allocs := testing.AllocsPerRun(100, func() {
			rp.Retype(vm, cloud.Large)
			rp.Undo()
			rp.Retype(vm, cloud.Medium)
			rp.Keep()
			rp.Retype(vm, cloud.Small)
			rp.Keep()
		})
		if allocs != 0 {
			t.Errorf("%s: a trial allocated %v objects, want 0", name, allocs)
		}
	}
}

func TestLoadRejectsOtherShapes(t *testing.T) {
	wf := dagtest.Chain(3, 100)
	rp, err := plan.NewReplayer(wf, cloud.NewPlatform(), cloud.USEastVirginia, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := plan.Assignment{
		Types:  []cloud.InstanceType{cloud.Small, cloud.Small},
		Queues: [][]dag.TaskID{{0, 1}, {2}},
	}
	if _, err := rp.Load(shared); err == nil || !strings.Contains(err.Error(), "one task per VM") {
		t.Errorf("Load of a shared VM: err = %v", err)
	}
	twice := oneVMPerTask(wf)
	twice.Queues[2][0] = 1
	if _, err := rp.Load(twice); err == nil {
		t.Error("Load accepted a task assigned twice")
	}
	// Retype needs a loaded assignment and no pending trial: a failed
	// Load and a Replay leave nothing loaded.
	retypePanics := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Retype %s did not panic", when)
			}
		}()
		rp.Retype(0, cloud.Medium)
	}
	retypePanics("after a failed Load")
	if _, err := rp.Load(oneVMPerTask(wf)); err != nil {
		t.Fatal(err)
	}
	rp.Retype(1, cloud.Large)
	retypePanics("with a trial pending")
	if _, err := rp.Replay(oneVMPerTask(wf)); err != nil {
		t.Fatal(err)
	}
	retypePanics("after Replay")
}
