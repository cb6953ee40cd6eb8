package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/provision"
	"repro/internal/workflows"
	"repro/internal/workload"
)

func TestCatalogHas19UniqueStrategies(t *testing.T) {
	cat := Catalog()
	if len(cat) != 19 {
		t.Fatalf("catalog size = %d, want 19", len(cat))
	}
	seen := map[string]bool{}
	for _, a := range cat {
		if seen[a.Name()] {
			t.Errorf("duplicate strategy %q", a.Name())
		}
		seen[a.Name()] = true
	}
	// The exact labels of the paper's Fig. 4 legends.
	for _, name := range []string{
		"StartParNotExceed-s", "StartParExceed-s", "AllParExceed-s",
		"AllParNotExceed-s", "OneVMperTask-s",
		"StartParNotExceed-m", "StartParExceed-m", "AllParExceed-m",
		"AllParNotExceed-m", "OneVMperTask-m",
		"StartParNotExceed-l", "StartParExceed-l", "AllParExceed-l",
		"AllParNotExceed-l", "OneVMperTask-l",
		"CPA-Eager", "GAIN", "AllPar1LnS", "AllPar1LnSDyn",
	} {
		if !seen[name] {
			t.Errorf("catalog missing %q", name)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("AllParExceed-m")
	if err != nil || a.Name() != "AllParExceed-m" {
		t.Errorf("ByName = %v, %v", a, err)
	}
	if _, err := ByName("Bogus-z"); err == nil {
		t.Error("ByName(Bogus-z) succeeded")
	}
}

func TestBaselineIsOneVMperTaskSmall(t *testing.T) {
	if got := Baseline().Name(); got != "OneVMperTask-s" {
		t.Errorf("baseline = %q", got)
	}
}

func TestHEFTRejectsLevelPolicies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewHEFT(provision.AllParExceed, cloud.Small)
}

func TestAllParRejectsRankPolicies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewAllPar(provision.OneVMperTask, cloud.Small)
}

func TestHEFTOneVMperTaskForkJoin(t *testing.T) {
	w := dagtest.ForkJoin(4, 1000)
	s, err := NewHEFT(provision.OneVMperTask, cloud.Small).Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.VMCount() != 6 {
		t.Errorf("VMCount = %d, want 6", s.VMCount())
	}
	// entry [0,1000), mids [1000,2000) in parallel, exit [2000,3000).
	if got := s.Makespan(); math.Abs(got-3000) > 1e-9 {
		t.Errorf("makespan = %v, want 3000", got)
	}
	if got := s.TotalCost(); math.Abs(got-6*0.08) > 1e-9 {
		t.Errorf("cost = %v, want 0.48", got)
	}
}

func TestHEFTStartParExceedSingleEntrySerializes(t *testing.T) {
	w := dagtest.ForkJoin(4, 1000)
	s, err := NewHEFT(provision.StartParExceed, cloud.Small).Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.VMCount() != 1 {
		t.Errorf("VMCount = %d, want 1", s.VMCount())
	}
	if got := s.Makespan(); math.Abs(got-6000) > 1e-9 {
		t.Errorf("makespan = %v, want 6000", got)
	}
	// 6000s on one small VM: 2 BTUs.
	if got := s.TotalCost(); math.Abs(got-0.16) > 1e-9 {
		t.Errorf("cost = %v, want 0.16", got)
	}
}

func TestHEFTProcessesByRank(t *testing.T) {
	// In the diamond, c (work 300) outranks b (work 200), so with
	// StartParExceed c is queued onto the entry VM first.
	w := dag.New("diamond")
	a := w.AddTask("a", 100)
	b := w.AddTask("b", 200)
	c := w.AddTask("c", 300)
	d := w.AddTask("d", 400)
	w.AddEdge(a, b, 0)
	w.AddEdge(a, c, 0)
	w.AddEdge(b, d, 0)
	w.AddEdge(c, d, 0)
	s, err := NewHEFT(provision.StartParExceed, cloud.Small).Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[c] != 100 || s.Start[b] != 400 {
		t.Errorf("c starts %v (want 100), b starts %v (want 400)", s.Start[c], s.Start[b])
	}
}

func TestAllParSchedulesLevelInParallel(t *testing.T) {
	w := dagtest.ForkJoin(5, 600)
	for _, kind := range []provision.Kind{provision.AllParExceed, provision.AllParNotExceed} {
		s, err := NewAllPar(kind, cloud.Small).Schedule(w, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range w.Levels()[1] {
			if s.Start[m] != 600 {
				t.Errorf("%v: mid %d starts at %v, want 600", kind, m, s.Start[m])
			}
		}
		if got := s.Makespan(); math.Abs(got-1800) > 1e-9 {
			t.Errorf("%v: makespan = %v, want 1800", kind, got)
		}
	}
}

// fanWorkflow returns a single entry fanning into tasks with the given
// works.
func fanWorkflow(works []float64, entryWork float64) *dag.Workflow {
	w := dag.New("fan")
	e := w.AddTask("entry", entryWork)
	for i, wk := range works {
		t := w.AddTask("f"+string(rune('a'+i)), wk)
		w.AddEdge(e, t, 0)
	}
	if err := w.Freeze(); err != nil {
		panic(err)
	}
	return w
}

func TestAllPar1LnSPacksShortTasksBehindLongest(t *testing.T) {
	// Level works 1000, 400, 300, 300, 200: capacity 1000 fits the four
	// short ones (sum 1200 > 1000 -> bins [1000], [400,300,300], [200]).
	w := fanWorkflow([]float64{1000, 400, 300, 300, 200}, 100)
	s, err := NewAllPar1LnS().Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Entry VM is reused by the longest bin: 3 VMs total.
	if s.VMCount() != 3 {
		t.Errorf("VMCount = %d, want 3", s.VMCount())
	}
	// Level makespan stays that of the longest task.
	if got := s.Makespan(); math.Abs(got-1100) > 1e-9 {
		t.Errorf("makespan = %v, want 1100", got)
	}
}

func TestAllPar1LnSCheaperThanAllParNotExceedSameMakespan(t *testing.T) {
	// Many short parallel tasks next to one long one: 1LnS must cut cost
	// without hurting the makespan.
	w := fanWorkflow([]float64{2000, 500, 500, 500, 400, 100}, 100)
	opts := DefaultOptions()
	full, err := NewAllPar(provision.AllParNotExceed, cloud.Small).Schedule(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := NewAllPar1LnS().Schedule(w.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Makespan() > full.Makespan()+1e-9 {
		t.Errorf("1LnS makespan %v > AllParNotExceed %v", packed.Makespan(), full.Makespan())
	}
	if packed.TotalCost() >= full.TotalCost() {
		t.Errorf("1LnS cost %v not below AllParNotExceed %v", packed.TotalCost(), full.TotalCost())
	}
}

func TestLevelBins(t *testing.T) {
	w := fanWorkflow([]float64{10, 4, 3, 3, 2}, 1)
	bins := packBins(w, w.LevelsByWork()[1])
	// Capacity 10: [10], [4,3,3] (exactly full), [2].
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if len(bins[0]) != 1 || w.Task(bins[0][0]).Work != 10 {
		t.Errorf("bin 0 = %v, want the longest task alone", bins[0])
	}
	if len(bins[1]) != 3 || len(bins[2]) != 1 {
		t.Errorf("bin sizes = %d/%d, want 3/1", len(bins[1]), len(bins[2]))
	}
	var sum float64
	for _, bin := range bins[1:] {
		for _, id := range bin {
			sum += w.Task(id).Work
		}
	}
	if sum != 12 {
		t.Errorf("short bins cover %v work, want 12", sum)
	}
	for i, bin := range bins[1:] {
		var s float64
		for _, id := range bin {
			s += w.Task(id).Work
		}
		if s > 10+1e-9 {
			t.Errorf("bin %d exceeds capacity: %v", i+1, s)
		}
	}
}

func TestAllPar1LnSDynUpgradesLongTaskWithinBudget(t *testing.T) {
	// Level [3000, 500, 500, 500]: AllParNotExceed budget 4x$0.08 = $0.32.
	// Escalation can afford medium for the long task ($0.24 total) but not
	// large ($0.40), so the long task runs on a medium VM.
	w := fanWorkflow([]float64{3000, 500, 500, 500}, 100)
	s, err := NewAllPar1LnSDyn().Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	longTask := w.Levels()[1][0] // first ID in level order is task b (3000)
	// find the 3000-work task explicitly
	for _, id := range w.Levels()[1] {
		if w.Task(id).Work == 3000 {
			longTask = id
		}
	}
	if got := s.TaskVM(longTask).Type; got != cloud.Medium {
		t.Errorf("long task runs on %v, want medium", got)
	}
	// Its execution time shrank accordingly.
	if et := s.End[longTask] - s.Start[longTask]; math.Abs(et-3000/1.6) > 1e-6 {
		t.Errorf("long task ET = %v, want %v", et, 3000/1.6)
	}
}

func TestAllPar1LnSDynNeverBeatsBudget(t *testing.T) {
	// For every paper workflow x scenario, the per-level escalation must
	// keep the total cost within the sum of level AllParNotExceed budgets.
	for name, wf := range workflows.Paper() {
		for _, sc := range workload.Scenarios() {
			w := sc.Apply(wf, 11)
			s, err := NewAllPar1LnSDyn().Schedule(w, DefaultOptions())
			if err != nil {
				t.Fatalf("%s/%v: %v", name, sc, err)
			}
			var budget float64
			for _, level := range w.Levels() {
				for _, id := range level {
					budget += cloud.LeaseCost(w.Task(id).Work, cloud.Small, cloud.USEastVirginia)
				}
			}
			if s.RentalCost() > budget+1e-9 {
				t.Errorf("%s/%v: cost %v exceeds AllParNotExceed budget %v",
					name, sc, s.RentalCost(), budget)
			}
		}
	}
}

func TestCPAEagerUpgradesCriticalPathWithinBudget(t *testing.T) {
	// Chain of four 1000s tasks: baseline cost 4x$0.08=$0.32, budget $0.64.
	// CPA-Eager can afford medium for all four VMs, halving nothing more.
	w := dagtest.Chain(4, 1000)
	s, err := NewCPAEager().Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < w.Len(); id++ {
		if got := s.TaskVM(dag.TaskID(id)).Type; got != cloud.Medium {
			t.Errorf("task %d on %v, want medium", id, got)
		}
	}
	if got := s.TotalCost(); got > 0.64+1e-9 {
		t.Errorf("cost %v exceeds budget 0.64", got)
	}
	if got := s.Makespan(); math.Abs(got-4*625) > 1e-6 {
		t.Errorf("makespan = %v, want 2500", got)
	}
}

func TestGainStopsAtBudget(t *testing.T) {
	w := dagtest.Chain(4, 1000)
	base, err := Baseline().Schedule(w.Clone(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewGain().Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * base.TotalCost()
	if s.TotalCost() > budget+1e-9 {
		t.Errorf("cost %v exceeds budget %v", s.TotalCost(), budget)
	}
	if s.Makespan() >= base.Makespan() {
		t.Errorf("Gain makespan %v did not improve on baseline %v", s.Makespan(), base.Makespan())
	}
}

func TestGainPrefersBestGainFirst(t *testing.T) {
	// Two independent tasks, one big one small. The medium upgrade of the
	// big task has the highest gain (same cost delta, more seconds saved),
	// so with a budget allowing only some upgrades the big task gets the
	// faster VM first.
	w := dag.New("pair")
	w.AddTask("big", 3000)
	w.AddTask("small", 600)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	s, err := NewGain().Schedule(w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	big, small := s.TaskVM(0).Type, s.TaskVM(1).Type
	if big < small {
		t.Errorf("big task on %v but small task on %v", big, small)
	}
}

func TestDynamicAlgorithmsRespectPaperBudgets(t *testing.T) {
	for name, wf := range workflows.Paper() {
		w := workload.Pareto.Apply(wf, 5)
		base, err := Baseline().Schedule(w.Clone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cpa, err := NewCPAEager().Schedule(w.Clone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if cpa.TotalCost() > 2*base.TotalCost()+1e-9 {
			t.Errorf("%s: CPA-Eager cost %v exceeds 2x baseline %v", name, cpa.TotalCost(), base.TotalCost())
		}
		gain, err := NewGain().Schedule(w.Clone(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if gain.TotalCost() > 4*base.TotalCost()+1e-9 {
			t.Errorf("%s: Gain cost %v exceeds 4x baseline %v", name, gain.TotalCost(), base.TotalCost())
		}
		// Both aim at makespan: they never do worse than the baseline.
		if cpa.Makespan() > base.Makespan()+1e-6 {
			t.Errorf("%s: CPA-Eager makespan regressed: %v > %v", name, cpa.Makespan(), base.Makespan())
		}
		if gain.Makespan() > base.Makespan()+1e-6 {
			t.Errorf("%s: Gain makespan regressed: %v > %v", name, gain.Makespan(), base.Makespan())
		}
	}
}

// Property: every catalog strategy schedules every task of random DAGs
// exactly once, with starts after all predecessors' finishes.
func TestQuickAllStrategiesProduceValidSchedules(t *testing.T) {
	cat := Catalog()
	f := func(seed uint64) bool {
		cfg := dagtest.DefaultConfig()
		cfg.MaxTasks = 25
		w := dagtest.Random(seed, cfg)
		for _, alg := range cat {
			s, err := alg.Schedule(w.Clone(), DefaultOptions())
			if err != nil {
				t.Logf("%s: %v", alg.Name(), err)
				return false
			}
			if len(s.Start) != w.Len() {
				return false
			}
			for _, e := range w.Edges() {
				if s.Start[e.To] < s.End[e.From]-1e-9 {
					t.Logf("%s: task %d starts before %d ends", alg.Name(), e.To, e.From)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLevelOrderSortsByWorkDescending(t *testing.T) {
	w := fanWorkflow([]float64{100, 400, 200, 400}, 1)
	got := w.LevelsByWork()[1]
	works := make([]float64, len(got))
	for i, id := range got {
		works[i] = w.Task(id).Work
	}
	for i := 1; i < len(works); i++ {
		if works[i] > works[i-1] {
			t.Fatalf("LevelsByWork not descending: %v", works)
		}
	}
	// Equal works tie-break by ID.
	if got[0] > got[1] && works[0] == works[1] {
		t.Errorf("tie not broken by ID: %v", got)
	}
}
