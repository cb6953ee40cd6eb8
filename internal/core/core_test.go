package core

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// paperSweep runs the full paranoid sweep once per test binary; the
// paper-shape assertions below all read from it.
var paperSweep *Sweep

func sweep(t *testing.T) *Sweep {
	t.Helper()
	if paperSweep == nil {
		s, err := Run(Config{Seed: 42, Paranoid: true})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		paperSweep = s
	}
	return paperSweep
}

func TestSweepCoversFullGrid(t *testing.T) {
	s := sweep(t)
	if got := s.Len(); got != 4*3*19 {
		t.Errorf("cells = %d, want %d", got, 4*3*19)
	}
	if len(s.Strategies) != 19 {
		t.Errorf("strategies = %d", len(s.Strategies))
	}
	for _, wf := range s.Workflows() {
		for _, sc := range s.Scenarios() {
			if got := len(s.Points(wf, sc)); got != 19 {
				t.Errorf("%s/%v: %d points", wf, sc, got)
			}
		}
	}
}

func TestBaselineSitsAtOrigin(t *testing.T) {
	s := sweep(t)
	for _, wf := range s.Workflows() {
		for _, sc := range s.Scenarios() {
			r := s.MustGet(wf, sc, "OneVMperTask-s")
			if math.Abs(r.Point.GainPct) > 1e-9 || math.Abs(r.Point.LossPct) > 1e-9 {
				t.Errorf("%s/%v: baseline at (%v, %v), want origin",
					wf, sc, r.Point.GainPct, r.Point.LossPct)
			}
		}
	}
}

// Table IV's headline: the AllPar[Not]Exceed gain is pinned to the
// instance speed-up (0%, ~37%, ~52%) while the savings fluctuate.
func TestTable4StableGainPerInstanceType(t *testing.T) {
	s := sweep(t)
	rows := s.Table4()
	if len(rows) != 3 {
		t.Fatalf("Table4 rows = %d, want 3", len(rows))
	}
	wantGain := map[cloud.InstanceType][2]float64{
		cloud.Small:  {-5, 5},
		cloud.Medium: {33, 40},
		cloud.Large:  {49, 55},
	}
	for _, row := range rows {
		lohi := wantGain[row.Type]
		if row.MeanGainPct < lohi[0] || row.MeanGainPct > lohi[1] {
			t.Errorf("%v: mean gain %.1f%% outside [%v, %v]", row.Type, row.MeanGainPct, lohi[0], lohi[1])
		}
		if len(row.LossByWorkflow) != 4 {
			t.Errorf("%v: loss intervals for %d workflows", row.Type, len(row.LossByWorkflow))
		}
		// The per-type max interval must cover every per-workflow interval.
		for wf, iv := range row.LossByWorkflow {
			if iv.Lo < row.MaxLoss.Lo-1e-9 || iv.Hi > row.MaxLoss.Hi+1e-9 {
				t.Errorf("%v/%s: interval %v outside max %v", row.Type, wf, iv, row.MaxLoss)
			}
		}
	}
	// Small instances never lose money with AllPar[Not]Exceed on the
	// Pareto and best-case workloads (paper: "the only case in which
	// savings are positive").
	for _, wf := range s.Workflows() {
		for _, sc := range []workload.Scenario{workload.Pareto, workload.BestCase} {
			for _, strat := range []string{"AllParExceed-s", "AllParNotExceed-s"} {
				if r := s.MustGet(wf, sc, strat); r.Point.LossPct > 1e-9 {
					t.Errorf("%s/%v/%s: loss %v > 0", wf, sc, strat, r.Point.LossPct)
				}
			}
		}
	}
}

// The paper's economics: OneVMperTask on bigger instances buys its gain at
// an outsized price — +100% for medium, up to +300% for large.
func TestOneVMperTaskCostExplodes(t *testing.T) {
	s := sweep(t)
	for _, wf := range s.Workflows() {
		for _, sc := range s.Scenarios() {
			// >= 30: in the worst case BTU rounding softens the medium
			// premium (3 small BTUs vs 2 medium BTUs = +33%).
			m := s.MustGet(wf, sc, "OneVMperTask-m")
			if m.Point.LossPct < 30 {
				t.Errorf("%s/%v: OneVMperTask-m loss %v, want >= 30", wf, sc, m.Point.LossPct)
			}
			l := s.MustGet(wf, sc, "OneVMperTask-l")
			if l.Point.LossPct < 150 {
				t.Errorf("%s/%v: OneVMperTask-l loss %v, want >= 150", wf, sc, l.Point.LossPct)
			}
		}
		// Best case: every task still fits one BTU, so the loss is exactly
		// the price ratio: 100% (medium), 300% (large).
		m := s.MustGet(wf, workload.BestCase, "OneVMperTask-m")
		if math.Abs(m.Point.LossPct-100) > 1e-6 {
			t.Errorf("%s: best-case OneVMperTask-m loss = %v, want 100", wf, m.Point.LossPct)
		}
		l := s.MustGet(wf, workload.BestCase, "OneVMperTask-l")
		if math.Abs(l.Point.LossPct-300) > 1e-6 {
			t.Errorf("%s: best-case OneVMperTask-l loss = %v, want 300", wf, l.Point.LossPct)
		}
	}
}

// Sect. IV-B's scenario boundaries: the best case makes NotExceed
// indistinguishable from Exceed; the worst case collapses the NotExceed
// strategies onto OneVMperTask.
func TestScenarioBoundaryCollapses(t *testing.T) {
	s := sweep(t)
	for _, wf := range s.Workflows() {
		for _, suffix := range []string{"-s", "-m", "-l"} {
			for _, pair := range [][2]string{
				{"StartParNotExceed", "StartParExceed"},
				{"AllParNotExceed", "AllParExceed"},
			} {
				a := s.MustGet(wf, workload.BestCase, pair[0]+suffix)
				b := s.MustGet(wf, workload.BestCase, pair[1]+suffix)
				if math.Abs(a.Point.GainPct-b.Point.GainPct) > 1e-6 ||
					math.Abs(a.Point.LossPct-b.Point.LossPct) > 1e-6 {
					t.Errorf("%s best case: %s%s != %s%s", wf, pair[0], suffix, pair[1], suffix)
				}
			}
		}
		for _, strat := range []string{"StartParNotExceed-s", "AllParNotExceed-s"} {
			r := s.MustGet(wf, workload.WorstCase, strat)
			if math.Abs(r.Point.GainPct) > 1e-6 || math.Abs(r.Point.LossPct) > 1e-6 {
				t.Errorf("%s worst case: %s at (%v, %v), want OneVMperTask's origin",
					wf, strat, r.Point.GainPct, r.Point.LossPct)
			}
		}
	}
}

// Fig. 5's idle-time ordering: StartParExceed wastes the least, the
// OneVMperTask family (and its derivatives GAIN/CPA-Eager) the most.
func TestIdleTimeOrdering(t *testing.T) {
	s := sweep(t)
	heavy := map[string]bool{
		"OneVMperTask-s": true, "OneVMperTask-m": true, "OneVMperTask-l": true,
		"GAIN": true, "CPA-Eager": true,
	}
	for _, wf := range s.Workflows() {
		spe := s.MustGet(wf, workload.Pareto, "StartParExceed-s").Point.IdleTime
		one := s.MustGet(wf, workload.Pareto, "OneVMperTask-s").Point.IdleTime
		if spe > one {
			t.Errorf("%s: StartParExceed-s idle %v exceeds OneVMperTask-s %v", wf, spe, one)
		}
		pts := s.Points(wf, workload.Pareto)
		top := pts[0]
		for _, r := range pts[1:] {
			if r.Point.IdleTime > top.Point.IdleTime {
				top = r
			}
		}
		if !heavy[top.Strategy] {
			t.Errorf("%s: largest idle from %s, expected a OneVMperTask-family strategy",
				wf, top.Strategy)
		}
	}
}

// The paper's conclusion on the dynamic strategies: AllPar1LnSDyn never
// loses money (it stays on the savings side of the square in every case).
func TestAllPar1LnSDynNeverLosesMoney(t *testing.T) {
	s := sweep(t)
	for _, wf := range s.Workflows() {
		for _, sc := range s.Scenarios() {
			for _, strat := range []string{"AllPar1LnS", "AllPar1LnSDyn"} {
				if r := s.MustGet(wf, sc, strat); r.Point.LossPct > 1e-9 {
					t.Errorf("%s/%v: %s loses %v%%", wf, sc, strat, r.Point.LossPct)
				}
			}
		}
	}
}

func TestTable3GroupsEqualOutcomes(t *testing.T) {
	s := sweep(t)
	rows := s.Table3()
	if len(rows) != 12 {
		t.Fatalf("Table3 rows = %d, want 12", len(rows))
	}
	for _, row := range rows {
		for cat, groups := range row.Groups {
			if cat == metrics.OutOfSquare {
				t.Errorf("%s/%v: out-of-square strategies listed in Table III", row.Workflow, row.Scenario)
			}
			for _, group := range groups {
				if len(group) == 0 {
					t.Errorf("%s/%v: empty equivalence group", row.Workflow, row.Scenario)
				}
				// Every member of a group must indeed have equal outcomes
				// (grouping rounds to one decimal, so members may differ
				// by just under 0.1 percentage points).
				first := s.MustGet(row.Workflow, row.Scenario, group[0]).Point
				for _, name := range group[1:] {
					p := s.MustGet(row.Workflow, row.Scenario, name).Point
					if math.Abs(p.GainPct-first.GainPct) > 0.1 ||
						math.Abs(p.LossPct-first.LossPct) > 0.1 {
						t.Errorf("%s/%v: %s grouped with %s but outcomes differ",
							row.Workflow, row.Scenario, name, group[0])
					}
				}
			}
		}
	}
	// Worst case must exhibit the paper's "= 0" group: for every workflow
	// the NotExceed trio collapses into one group at the origin.
	for _, row := range rows {
		if row.Scenario != workload.WorstCase {
			continue
		}
		found := false
		for _, groups := range row.Groups {
			for _, g := range groups {
				has := map[string]bool{}
				for _, n := range g {
					has[n] = true
				}
				if has["StartParNotExceed-s"] && has["AllParNotExceed-s"] && has["OneVMperTask-s"] {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s worst case: missing the collapsed '= 0' group", row.Workflow)
		}
	}
}

func TestFormatGroups(t *testing.T) {
	got := FormatGroups([][]string{{"A", "B"}, {"C"}})
	if got != "A = B, C" {
		t.Errorf("FormatGroups = %q", got)
	}
}

func TestTable5RecommendsForEveryWorkflowAndGoal(t *testing.T) {
	s := sweep(t)
	recs, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("recommendations = %d, want 12", len(recs))
	}
	for _, rec := range recs {
		if rec.Strategy == "" {
			t.Errorf("%s/%v: empty recommendation", rec.Workflow, rec.Goal)
		}
		// A savings recommendation must actually save money on average.
		if rec.Goal == metrics.Savings && rec.Point.LossPct > 1e-9 {
			t.Errorf("%s: savings recommendation %s loses %v%% in the Pareto case",
				rec.Workflow, rec.Strategy, rec.Point.LossPct)
		}
	}
	// The paper's Table V savings column: AllPar1LnSDyn-family or other
	// never-losing strategies dominate. Assert the sequential workflow's
	// savings pick is a single-VM-style strategy (huge savings available).
	for _, rec := range recs {
		if rec.Workflow == "Sequential" && rec.Goal == metrics.Savings {
			if rec.Point.SavingsPct() < 50 {
				t.Errorf("Sequential savings pick %s saves only %v%%", rec.Strategy, rec.Point.SavingsPct())
			}
		}
	}
}

func TestRecommendUnknownWorkflow(t *testing.T) {
	s := sweep(t)
	if _, err := s.Recommend("NoSuchWorkflow", metrics.Savings); err == nil {
		t.Error("Recommend on unknown workflow succeeded")
	}
}

// TestGoalStrings pins Table V's goal columns: their order in Table5 and
// the names the table prints for them.
func TestGoalStrings(t *testing.T) {
	want := []string{"Savings", "Gain", "Balance"}
	goals := metrics.Goals()
	if len(goals) != len(want) {
		t.Fatalf("%d goals, want %d", len(goals), len(want))
	}
	for i, g := range goals {
		if g.String() != want[i] {
			t.Errorf("goal %d = %q, want %q", i, g, want[i])
		}
	}
	if got := metrics.Goal(7).String(); got != "Goal(7)" {
		t.Errorf("unknown goal = %q", got)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	cfg := Config{}.Fill()
	if cfg.Platform == nil || len(cfg.Workflows) != 4 ||
		len(cfg.Scenarios) != 3 || len(cfg.Strategies) != 19 {
		t.Errorf("Fill() incomplete: %+v", cfg)
	}
	if len(cfg.WorkflowOrder) != 4 {
		t.Errorf("WorkflowOrder = %v", cfg.WorkflowOrder)
	}
}

func TestRunUnknownWorkflowInOrder(t *testing.T) {
	cfg := Config{}.Fill()
	cfg.WorkflowOrder = append(cfg.WorkflowOrder, "Ghost")
	if _, err := Run(cfg); err == nil {
		t.Error("Run with ghost workflow succeeded")
	}
}

func TestSweepSeedsChangeParetoOnly(t *testing.T) {
	a, err := Run(Config{Seed: 1, Scenarios: []workload.Scenario{workload.BestCase}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 2, Scenarios: []workload.Scenario{workload.BestCase}})
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range a.Workflows() {
		for _, strat := range a.Strategies {
			pa := a.MustGet(wf, workload.BestCase, strat).Point
			pb := b.MustGet(wf, workload.BestCase, strat).Point
			if pa.GainPct != pb.GainPct || pa.LossPct != pb.LossPct {
				t.Errorf("%s/%s: deterministic scenario varied with seed", wf, strat)
			}
		}
	}
}

// Worker count must be invisible in the sweep's numbers: the per-worker
// scratch (oracle ledgers, sim arenas, per-pane batches) is reset state,
// never shared state, so the golden tables a 16-worker paranoid sweep
// produces are exactly the 1-worker tables.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, err := Run(Config{Seed: 42, Paranoid: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		parallel, err := Run(Config{Seed: 42, Paranoid: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if serial.Len() != parallel.Len() {
			t.Fatalf("cell counts differ: %d vs %d", serial.Len(), parallel.Len())
		}
		for _, wf := range serial.Workflows() {
			for _, sc := range serial.Scenarios() {
				for _, strat := range serial.Strategies {
					a := serial.MustGet(wf, sc, strat)
					b := parallel.MustGet(wf, sc, strat)
					if a.Point != b.Point || a.Category != b.Category ||
						a.Energy != b.Energy || a.CoRentRecovered != b.CoRentRecovered {
						t.Fatalf("%s/%v/%s: %d-worker result differs from serial",
							wf, sc, strat, workers)
					}
				}
			}
		}
	}
}

func TestSweepDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range a.Workflows() {
		for _, sc := range a.Scenarios() {
			for _, strat := range a.Strategies {
				if a.MustGet(wf, sc, strat).Point != b.MustGet(wf, sc, strat).Point {
					t.Fatalf("%s/%v/%s: sweep not deterministic", wf, sc, strat)
				}
			}
		}
	}
}
