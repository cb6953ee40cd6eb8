package dag_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dag/dagtest"
)

// diamond builds the canonical 4-task diamond: a → {b, c} → d.
// zeroComm ignores communication entirely, the model of the paper's
// CPU-intensive experiments.
func zeroComm(dag.Edge) float64 { return 0 }

func diamond(t *testing.T) (*dag.Workflow, [4]dag.TaskID) {
	t.Helper()
	w := dag.New("diamond")
	a := w.AddTask("a", 10)
	b := w.AddTask("b", 20)
	c := w.AddTask("c", 30)
	d := w.AddTask("d", 40)
	w.AddEdge(a, b, 100)
	w.AddEdge(a, c, 200)
	w.AddEdge(b, d, 300)
	w.AddEdge(c, d, 400)
	if err := w.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return w, [4]dag.TaskID{a, b, c, d}
}

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	w := dag.New("x")
	for i := 0; i < 5; i++ {
		if id := w.AddTask("t", 1); int(id) != i {
			t.Fatalf("AddTask #%d returned ID %d", i, id)
		}
	}
	if w.Len() != 5 {
		t.Errorf("Len = %d", w.Len())
	}
}

func TestConstructionPanics(t *testing.T) {
	cases := map[string]func(w *dag.Workflow){
		"negative work":  func(w *dag.Workflow) { w.AddTask("t", -1) },
		"unknown target": func(w *dag.Workflow) { w.AddEdge(0, 99, 0) },
		"unknown source": func(w *dag.Workflow) { w.AddEdge(99, 0, 0) },
		"self loop":      func(w *dag.Workflow) { w.AddEdge(0, 0, 0) },
		"negative data":  func(w *dag.Workflow) { w.AddEdge(0, 1, -5) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			w := dag.New("p")
			w.AddTask("a", 1)
			w.AddTask("b", 1)
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f(w)
		})
	}
}

func TestFrozenMutationPanics(t *testing.T) {
	w := dag.New("f")
	w.AddTask("a", 1)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddTask on frozen workflow did not panic")
		}
	}()
	w.AddTask("b", 1)
}

func TestFreezeEmptyFails(t *testing.T) {
	if err := dag.New("e").Freeze(); err == nil {
		t.Error("Freeze of empty workflow succeeded")
	}
}

func TestFreezeCycleFails(t *testing.T) {
	w := dag.New("c")
	a := w.AddTask("a", 1)
	b := w.AddTask("b", 1)
	c := w.AddTask("c", 1)
	w.AddEdge(a, b, 0)
	w.AddEdge(b, c, 0)
	w.AddEdge(c, a, 0)
	if err := w.Freeze(); err == nil {
		t.Error("Freeze of cyclic graph succeeded")
	}
}

func TestDuplicateEdgeAccumulates(t *testing.T) {
	w := dag.New("dup")
	a := w.AddTask("a", 1)
	b := w.AddTask("b", 1)
	w.AddEdge(a, b, 10)
	w.AddEdge(a, b, 5)
	if d, ok := w.Data(a, b); !ok || d != 15 {
		t.Errorf("Data = %v, %v; want 15, true", d, ok)
	}
	if len(w.Edges()) != 1 {
		t.Errorf("Edges count = %d, want 1", len(w.Edges()))
	}
	if got := len(w.Succ(a)); got != 1 {
		t.Errorf("Succ count = %d, want 1", got)
	}
}

func TestDiamondStructure(t *testing.T) {
	w, ids := diamond(t)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]

	if got := w.Entries(); len(got) != 1 || got[0] != a {
		t.Errorf("Entries = %v", got)
	}
	if got := w.Exits(); len(got) != 1 || got[0] != d {
		t.Errorf("Exits = %v", got)
	}
	if w.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", w.Depth())
	}
	levels := w.Levels()
	if len(levels[0]) != 1 || levels[0][0] != a {
		t.Errorf("level 0 = %v", levels[0])
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v", levels[1])
	}
	if len(levels[2]) != 1 || levels[2][0] != d {
		t.Errorf("level 2 = %v", levels[2])
	}
	if w.Level(b) != 1 || w.Level(c) != 1 {
		t.Errorf("Level(b,c) = %d,%d", w.Level(b), w.Level(c))
	}
	if w.MaxParallelism() != 2 {
		t.Errorf("MaxParallelism = %d", w.MaxParallelism())
	}
	if w.TotalWork() != 100 {
		t.Errorf("TotalWork = %v", w.TotalWork())
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	w, _ := diamond(t)
	order := w.TopoOrder()
	pos := make(map[dag.TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range w.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violated by topo order %v", e.From, e.To, order)
		}
	}
}

func TestUpwardRanksDiamond(t *testing.T) {
	w, ids := diamond(t)
	m := dag.CostModel{
		Exec: func(task dag.Task) float64 { return task.Work },
		Comm: func(e dag.Edge) float64 { return e.Data / 100 },
	}
	ranks := w.UpwardRanks(m)
	// rank(d)=40; rank(b)=20+3+40=63; rank(c)=30+4+40=74;
	// rank(a)=10+max(1+63, 2+74)=86.
	want := map[dag.TaskID]float64{ids[3]: 40, ids[1]: 63, ids[2]: 74, ids[0]: 86}
	for id, r := range want {
		if math.Abs(ranks[id]-r) > 1e-9 {
			t.Errorf("rank(%d) = %v, want %v", id, ranks[id], r)
		}
	}
}

func TestRankOrderIsTopological(t *testing.T) {
	w, _ := diamond(t)
	m := dag.CostModel{Exec: func(task dag.Task) float64 { return task.Work }, Comm: zeroComm}
	order := w.RankOrder(m)
	pos := make(map[dag.TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range w.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("rank order is not topological: %v", order)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	w, ids := diamond(t)
	m := dag.CostModel{Exec: func(task dag.Task) float64 { return task.Work }, Comm: zeroComm}
	path, length := w.CriticalPath(m)
	if math.Abs(length-80) > 1e-9 { // a(10) + c(30) + d(40)
		t.Errorf("critical length = %v, want 80", length)
	}
	want := []dag.TaskID{ids[0], ids[2], ids[3]}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestCriticalPathWithComm(t *testing.T) {
	w, ids := diamond(t)
	// Heavy communication on a->b flips the critical path through b:
	// via b: 10 + 50 + 20 + 0 + 40 = 120 ; via c: 10 + 0 + 30 + 0 + 40 = 80.
	m := dag.CostModel{
		Exec: func(task dag.Task) float64 { return task.Work },
		Comm: func(e dag.Edge) float64 {
			if e.From == ids[0] && e.To == ids[1] {
				return 50
			}
			return 0
		},
	}
	path, length := w.CriticalPath(m)
	if math.Abs(length-120) > 1e-9 {
		t.Errorf("length = %v, want 120", length)
	}
	if path[1] != ids[1] {
		t.Errorf("path = %v, want via b", path)
	}
}

func TestIsAncestor(t *testing.T) {
	w, ids := diamond(t)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	cases := []struct {
		from, to dag.TaskID
		want     bool
	}{
		{a, b, true}, {a, d, true}, {b, d, true},
		{b, c, false}, {c, b, false}, {d, a, false}, {a, a, false},
	}
	for _, cse := range cases {
		if got := w.IsAncestor(cse.from, cse.to); got != cse.want {
			t.Errorf("IsAncestor(%d, %d) = %v, want %v", cse.from, cse.to, got, cse.want)
		}
	}
}

func TestSetWorkAndSetData(t *testing.T) {
	w, ids := diamond(t)
	w.SetWork(func(task dag.Task) float64 { return 7 })
	if w.TotalWork() != 28 {
		t.Errorf("TotalWork after SetWork = %v", w.TotalWork())
	}
	w.SetData(func(e dag.Edge) float64 { return e.Data * 2 })
	if d, _ := w.Data(ids[0], ids[1]); d != 200 {
		t.Errorf("Data after SetData = %v, want 200", d)
	}
}

func TestCloneIsDeep(t *testing.T) {
	w, ids := diamond(t)
	c := w.Clone()
	c.SetWork(func(task dag.Task) float64 { return 0 })
	if w.Task(ids[0]).Work != 10 {
		t.Error("mutating clone changed original work")
	}
	// Clone must be unfrozen: adding a task should not panic.
	c.AddTask("new", 1)
	if c.Len() != w.Len()+1 {
		t.Errorf("clone Len = %d", c.Len())
	}
	if err := c.Freeze(); err != nil {
		t.Errorf("clone Freeze: %v", err)
	}
}

func TestChainHelper(t *testing.T) {
	w := dagtest.Chain(5, 100)
	if w.Depth() != 5 || w.MaxParallelism() != 1 {
		t.Errorf("chain Depth=%d MaxParallelism=%d", w.Depth(), w.MaxParallelism())
	}
}

func TestForkJoinHelper(t *testing.T) {
	w := dagtest.ForkJoin(8, 100)
	if w.Depth() != 3 || w.MaxParallelism() != 8 {
		t.Errorf("forkjoin Depth=%d MaxParallelism=%d", w.Depth(), w.MaxParallelism())
	}
	if len(w.Entries()) != 1 || len(w.Exits()) != 1 {
		t.Errorf("Entries=%v Exits=%v", w.Entries(), w.Exits())
	}
}

// Property: random DAGs always freeze, topological order is consistent, and
// levels strictly increase along edges.
func TestQuickRandomDAGInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		w := dagtest.Random(seed, dagtest.DefaultConfig())
		order := w.TopoOrder()
		if len(order) != w.Len() {
			return false
		}
		pos := make(map[dag.TaskID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range w.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
			if w.Level(e.From) >= w.Level(e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the critical path length is at least the heaviest single task
// and at most the total work (with zero communication).
func TestQuickCriticalPathBounds(t *testing.T) {
	m := dag.CostModel{Exec: func(task dag.Task) float64 { return task.Work }, Comm: zeroComm}
	f := func(seed uint64) bool {
		w := dagtest.Random(seed, dagtest.DefaultConfig())
		path, length := w.CriticalPath(m)
		if len(path) == 0 {
			return false
		}
		var maxWork float64
		for _, task := range w.Tasks() {
			if task.Work > maxWork {
				maxWork = task.Work
			}
		}
		if length < maxWork-1e-9 || length > w.TotalWork()+1e-9 {
			return false
		}
		// The returned path must be an actual path.
		for i := 0; i+1 < len(path); i++ {
			if _, ok := w.Data(path[i], path[i+1]); !ok {
				return false
			}
		}
		// And its own weight must equal the reported length.
		var sum float64
		for _, id := range path {
			sum += w.Task(id).Work
		}
		return math.Abs(sum-length) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: ranks decrease along every edge (with positive exec times),
// which is what makes the HEFT order topological.
func TestQuickRanksDecreaseAlongEdges(t *testing.T) {
	m := dag.CostModel{Exec: func(task dag.Task) float64 { return task.Work }, Comm: zeroComm}
	f := func(seed uint64) bool {
		w := dagtest.Random(seed, dagtest.DefaultConfig())
		ranks := w.UpwardRanks(m)
		for _, e := range w.Edges() {
			if ranks[e.From] <= ranks[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: levels partition the tasks and no two tasks in one level are
// connected by a path.
func TestQuickLevelsAreAntichains(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := dagtest.DefaultConfig()
		cfg.MaxTasks = 15 // IsAncestor is quadratic; keep graphs small
		w := dagtest.Random(seed, cfg)
		total := 0
		for _, lvl := range w.Levels() {
			total += len(lvl)
			for i := 0; i < len(lvl); i++ {
				for j := i + 1; j < len(lvl); j++ {
					if w.IsAncestor(lvl[i], lvl[j]) || w.IsAncestor(lvl[j], lvl[i]) {
						return false
					}
				}
			}
		}
		return total == w.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSetDataVisitsEdgesInSortedOrder(t *testing.T) {
	// Stochastic assignment functions must consume their stream in a
	// deterministic order; SetData guarantees sorted (From, To) visits.
	build := func() *dag.Workflow {
		w := dag.New("order")
		a := w.AddTask("a", 1)
		b := w.AddTask("b", 1)
		c := w.AddTask("c", 1)
		w.AddEdge(b, c, 0)
		w.AddEdge(a, c, 0)
		w.AddEdge(a, b, 0)
		return w
	}
	assign := func() []float64 {
		w := build()
		n := 0.0
		w.SetData(func(dag.Edge) float64 { n++; return n })
		var out []float64
		for _, e := range w.Edges() {
			out = append(out, e.Data)
		}
		return out
	}
	first := assign()
	for i := 0; i < 20; i++ {
		if got := assign(); got[0] != first[0] || got[1] != first[1] || got[2] != first[2] {
			t.Fatalf("run %d visited edges in a different order: %v vs %v", i, got, first)
		}
	}
	// Sorted order: (a,b)=3rd visit? Edges() sorted is (a,b),(a,c),(b,c)
	// and SetData visits in that same order, so values are 1,2,3.
	if first[0] != 1 || first[1] != 2 || first[2] != 3 {
		t.Errorf("assignment order = %v, want [1 2 3]", first)
	}
}
