package sched_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// TestGainOrderMatchesRebuild requires Gain's maintained walk order to
// equal a full rebuild and sort after every accepted upgrade, so the walk
// and every accept or reject are those of the per-round rebuild. It
// covers the paper's four workflows under its three scenarios, and
// sampled instances of the Montage template under the none and spot
// markets. The stepwise loop must also end in Gain's own schedule.
func TestGainOrderMatchesRebuild(t *testing.T) {
	type problem struct {
		name string
		wf   *dag.Workflow
		opts sched.Options
	}
	var problems []problem
	for _, name := range workflows.PaperNames() {
		for _, sc := range workload.Scenarios() {
			problems = append(problems, problem{
				fmt.Sprintf("%s/%v", name, sc),
				sc.Apply(workflows.Paper()[name], 42), sched.DefaultOptions()})
		}
	}
	tpl, err := ndwf.Named("montage")
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range []string{"none", "spot"} {
		m, err := market.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		opts := sched.DefaultOptions()
		opts.Market = m
		for i := 0; i < 20; i++ {
			wf, err := tpl.Sample(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			problems = append(problems, problem{fmt.Sprintf("montage#%d/%s", i, preset), wf, opts})
		}
	}

	upgrades := 0
	for _, p := range problems {
		s, n, err := sched.CheckGainOrder(p.wf, p.opts)
		if err != nil {
			t.Errorf("%s (%d tasks): %v", p.name, p.wf.Len(), err)
			continue
		}
		upgrades += n
		want, err := sched.NewGain().Schedule(p.wf, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s.TotalCost()) != math.Float64bits(want.TotalCost()) ||
			math.Float64bits(s.Makespan()) != math.Float64bits(want.Makespan()) {
			t.Errorf("%s: stepwise loop gives $%v in %vs, Gain $%v in %vs",
				p.name, s.TotalCost(), s.Makespan(), want.TotalCost(), want.Makespan())
		}
	}
	if upgrades < len(problems) {
		t.Errorf("%d upgrades over %d problems: the order was hardly exercised", upgrades, len(problems))
	}
}
