package dag_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dag/dagtest"
	"repro/internal/workflows"
	"repro/internal/workload"
)

func TestProfileDiamond(t *testing.T) {
	w, _ := diamond(t)
	p := w.Profile()
	if p.Tasks != 4 || p.Edges != 4 || p.Depth != 3 {
		t.Errorf("profile = %+v", p)
	}
	if p.MaxWidth != 2 || math.Abs(p.MeanWidth-4.0/3.0) > 1e-9 {
		t.Errorf("widths = %d / %v", p.MaxWidth, p.MeanWidth)
	}
	if p.TotalWork != 100 || p.MinWork != 10 || p.MaxWork != 40 || p.MeanWork != 25 {
		t.Errorf("work stats = %+v", p)
	}
	if p.EntryCount != 1 || p.Exits != 1 {
		t.Errorf("entries/exits = %d/%d", p.EntryCount, p.Exits)
	}
	if p.TotalData != 1000 {
		t.Errorf("TotalData = %v", p.TotalData)
	}
	// CV of {10,20,30,40}: std = sqrt(500/3), mean 25.
	wantCV := math.Sqrt(500.0/3.0) / 25
	if math.Abs(p.HeterogeneityCV-wantCV) > 1e-9 {
		t.Errorf("CV = %v, want %v", p.HeterogeneityCV, wantCV)
	}
	if len(p.Levels) != 3 || p.Levels[1] != 2 {
		t.Errorf("levels = %v", p.Levels)
	}
}

// TotalData is summed in Edges() order, so repeated calls agree bit for
// bit; a sum in map iteration order gave 10 distinct values over 200
// calls on this workflow.
func TestProfileTotalDataDeterministic(t *testing.T) {
	w := workload.Pareto.Apply(workflows.Montage(50), 7)
	var want float64
	for _, e := range w.Edges() {
		want += e.Data
	}
	for i := 0; i < 200; i++ {
		if got := w.Profile().TotalData; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalData = %v, want the in-order sum %v", i, got, want)
		}
	}
}

func TestProfileUniformChainHasZeroCV(t *testing.T) {
	w := dagtest.Chain(5, 100)
	p := w.Profile()
	if p.HeterogeneityCV != 0 {
		t.Errorf("CV = %v, want 0", p.HeterogeneityCV)
	}
	if p.MaxWidth != 1 || p.Depth != 5 {
		t.Errorf("chain profile = %+v", p)
	}
}

func TestCCR(t *testing.T) {
	w, _ := diamond(t)
	m := dag.CostModel{
		Exec: func(task dag.Task) float64 { return task.Work },
		Comm: func(e dag.Edge) float64 { return e.Data },
	}
	// comm = 100+200+300+400 = 1000; comp = 100 -> CCR 10 (data-bound).
	if got := w.CCR(m); math.Abs(got-10) > 1e-9 {
		t.Errorf("CCR = %v, want 10", got)
	}
	// Zero-comm model: CPU-bound, CCR 0.
	if got := w.CCR(dag.CostModel{Exec: m.Exec, Comm: zeroComm}); got != 0 {
		t.Errorf("zero-comm CCR = %v", got)
	}
	if got := w.CCR(dag.CostModel{Exec: m.Exec}); got != 0 {
		t.Errorf("nil-comm CCR = %v", got)
	}
}

func TestTransitiveReduction(t *testing.T) {
	// Chain a->b->c with a redundant control edge a->c.
	w := dag.New("red")
	a := w.AddTask("a", 1)
	b := w.AddTask("b", 1)
	c := w.AddTask("c", 1)
	w.AddEdge(a, b, 10)
	w.AddEdge(b, c, 10)
	w.AddEdge(a, c, 0) // redundant control link
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	r := w.TransitiveReduction()
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	if len(r.Edges()) != 2 {
		t.Errorf("edges after reduction = %d, want 2", len(r.Edges()))
	}
	if _, ok := r.Data(a, c); ok {
		t.Error("redundant control edge survived")
	}
	// The original is untouched.
	if len(w.Edges()) != 3 {
		t.Error("reduction mutated the original")
	}
}

func TestTransitiveReductionKeepsDataEdges(t *testing.T) {
	w := dag.New("keep")
	a := w.AddTask("a", 1)
	b := w.AddTask("b", 1)
	c := w.AddTask("c", 1)
	w.AddEdge(a, b, 10)
	w.AddEdge(b, c, 10)
	w.AddEdge(a, c, 512) // redundant for precedence, but real data moves
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	r := w.TransitiveReduction()
	if d, ok := r.Data(a, c); !ok || d != 512 {
		t.Errorf("data edge dropped or altered: %v, %v", d, ok)
	}
}

// Property: reduction preserves reachability exactly.
func TestQuickTransitiveReductionPreservesReachability(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := dagtest.DefaultConfig()
		cfg.MaxTasks = 14
		cfg.MaxData = 0 // all edges removable
		w := dagtest.Random(seed, cfg)
		r := w.TransitiveReduction()
		if r.Freeze() != nil {
			return false
		}
		for i := 0; i < w.Len(); i++ {
			for j := 0; j < w.Len(); j++ {
				if i == j {
					continue
				}
				if w.IsAncestor(dag.TaskID(i), dag.TaskID(j)) != r.IsAncestor(dag.TaskID(i), dag.TaskID(j)) {
					return false
				}
			}
		}
		// The reduction never grows the graph.
		return len(r.Edges()) <= len(w.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
