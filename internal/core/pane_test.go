package core

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// Panes are realized on the worker pool, in any order, yet Run reports
// the first failing pane in grid order, whatever the worker count.
func TestRunReportsFirstFailingPane(t *testing.T) {
	paper := workflows.Paper()
	names := workflows.PaperNames()
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{
			Seed:      3,
			Workflows: paper,
			// The 2nd and 4th panes name workflows the config lacks.
			WorkflowOrder: []string{names[0], "Ghost", names[1], "Phantom", names[2]},
			Scenarios:     []workload.Scenario{workload.Pareto},
			Strategies:    sched.Catalog()[:3],
			Paranoid:      true,
			Workers:       workers,
		}
		s, err := Run(cfg)
		if s != nil || err == nil {
			t.Fatalf("%d workers: Run succeeded with missing workflows", workers)
		}
		if want := `core: workflow "Ghost" not in config`; err.Error() != want {
			t.Errorf("%d workers: error %q, want %q", workers, err, want)
		}
	}
}

// A strategy listed twice computes its cells twice, but addresses one
// cell per pane: the last in grid order, as a map keyed by cell fills.
func TestRepeatedStrategyAddressesOneCell(t *testing.T) {
	cat := sched.Catalog()
	s, err := Run(Config{Seed: 5, Strategies: []sched.Algorithm{cat[0], cat[1], cat[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.results) != 36 {
		t.Fatalf("%d cells computed, want 36", len(s.results))
	}
	byKey := map[Key]Result{}
	for _, r := range s.results {
		byKey[r.Key] = r
	}
	if s.Len() != len(byKey) || s.Len() != 24 {
		t.Errorf("Len = %d, want %d distinct cells (24)", s.Len(), len(byKey))
	}
	for _, wf := range s.Workflows() {
		for _, sc := range s.Scenarios() {
			var want []Result
			for _, name := range s.Strategies {
				want = append(want, byKey[Key{Workflow: wf, Scenario: sc, Strategy: name}])
				if got, ok := s.Get(wf, sc, name); !ok || !reflect.DeepEqual(got, want[len(want)-1]) {
					t.Fatalf("Get(%s, %v, %s) = %+v, %v", wf, sc, name, got, ok)
				}
			}
			if got := s.Points(wf, sc); !reflect.DeepEqual(got, want) {
				t.Fatalf("Points(%s, %v) = %+v, want %+v", wf, sc, got, want)
			}
		}
	}
	if _, ok := s.Get("Ghost", workload.Pareto, cat[0].Name()); ok {
		t.Error("Get found a cell of an unknown workflow")
	}
	if _, ok := s.Get(s.Workflows()[0], workload.Pareto, "Ghost"); ok {
		t.Error("Get found a cell of an unknown strategy")
	}
}
