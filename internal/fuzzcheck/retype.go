package fuzzcheck

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/market"
	"repro/internal/plan"
	"repro/internal/stats"
)

// retypeWalk checks plan.Replayer's incremental pricer against its full
// replay on one workflow under one market model. It loads a seeded
// one-task-per-VM assignment (random types, a few prepaid VMs, VMs in a
// shuffled task order), then takes steps random trials: retype a random
// VM to a random type, price it with Retype, and keep or undo it at
// random. Every price must equal the TotalCost of a full Replay of the
// same assignment, on a second replayer, bit for bit; after the walk, a
// same-type retype must price the kept assignment.
func retypeWalk(wf *dag.Workflow, m *market.Model, seed uint64, steps int) error {
	n := wf.Len()
	if n == 0 {
		return nil
	}
	r := stats.NewRNG(seed)
	types := cloud.InstanceTypes()
	a := plan.Assignment{
		Types:   make([]cloud.InstanceType, n),
		Queues:  make([][]dag.TaskID, n),
		Prepaid: make([]bool, n),
	}
	for i := range a.Queues {
		a.Queues[i] = []dag.TaskID{dag.TaskID(i)}
		a.Types[i] = types[r.Intn(len(types))]
		a.Prepaid[i] = r.Intn(8) == 0
	}
	// VM index order sets the warm pool and the cold-start draws; it need
	// not follow task order.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		a.Queues[i], a.Queues[j] = a.Queues[j], a.Queues[i]
	}

	p := cloud.NewPlatform()
	rp, err := plan.NewReplayer(wf, p, cloud.USEastVirginia, m)
	if err != nil {
		return err
	}
	ref, err := plan.NewReplayer(wf, p, cloud.USEastVirginia, m)
	if err != nil {
		return err
	}
	price, err := rp.Load(a)
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := sameCost(price, ref, a); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	for step := 0; step < steps; step++ {
		vm := r.Intn(n)
		typ := types[r.Intn(len(types))]
		old := a.Types[vm]
		got := rp.Retype(vm, typ)
		a.Types[vm] = typ
		if err := sameCost(got, ref, a); err != nil {
			return fmt.Errorf("step %d (VM %d %v -> %v): %w", step, vm, old, typ, err)
		}
		if r.Intn(2) == 0 {
			rp.Keep()
			price = got
		} else {
			rp.Undo()
			a.Types[vm] = old
		}
	}
	if got := rp.Retype(0, a.Types[0]); math.Float64bits(got) != math.Float64bits(price) {
		return fmt.Errorf("same-type retype after the walk priced %v, want %v", got, price)
	}
	rp.Undo()
	return sameCost(price, ref, a)
}

// sameCost requires price to equal ref.Replay(a).TotalCost() bit for bit.
func sameCost(price float64, ref *plan.Replayer, a plan.Assignment) error {
	s, err := ref.Replay(a)
	if err != nil {
		return err
	}
	if want := s.TotalCost(); math.Float64bits(price) != math.Float64bits(want) {
		return fmt.Errorf("priced %v, Replay costs %v", price, want)
	}
	return nil
}

// CheckRetype runs retypeWalk on the case's workflow, with its scenario
// applied, under every market preset. The case's strategy and fault
// fields play no part.
func CheckRetype(c Case) error {
	c = c.Normalize()
	wf := scenarios()[c.Scenario].Apply(c.Workflow(), c.Seed)
	for i, name := range market.PresetNames() {
		m, err := market.Preset(name)
		if err != nil {
			return err
		}
		if err := retypeWalk(wf, m, c.Seed+uint64(i), 3*wf.Len()+8); err != nil {
			return fmt.Errorf("fuzzcheck: %v: market %s: %w", c, name, err)
		}
	}
	return nil
}
