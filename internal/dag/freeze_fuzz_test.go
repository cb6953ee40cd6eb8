package dag_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dag"
)

// refDAG is the map-backed construction the flat layout replaced, kept as
// the reference FuzzFreeze checks Freeze against: per-task successor and
// predecessor lists appended at an edge's first AddEdge, and one data map
// that accumulates duplicates in AddEdge order.
type refDAG struct {
	work       []float64
	succ, pred [][]dag.TaskID
	data       map[[2]dag.TaskID]float64
}

func newRef(work []float64) *refDAG {
	n := len(work)
	return &refDAG{
		work: slices.Clone(work),
		succ: make([][]dag.TaskID, n),
		pred: make([][]dag.TaskID, n),
		data: map[[2]dag.TaskID]float64{},
	}
}

func (r *refDAG) addEdge(from, to dag.TaskID, d float64) {
	key := [2]dag.TaskID{from, to}
	if _, dup := r.data[key]; dup {
		r.data[key] += d
		return
	}
	r.data[key] = d
	r.succ[from] = append(r.succ[from], to)
	r.pred[to] = append(r.pred[to], from)
}

// clone copies the lists and the map, as the old Clone did.
func (r *refDAG) clone() *refDAG {
	c := newRef(r.work)
	for i := range r.succ {
		c.succ[i] = slices.Clone(r.succ[i])
		c.pred[i] = slices.Clone(r.pred[i])
	}
	for k, v := range r.data {
		c.data[k] = v
	}
	return c
}

func (r *refDAG) edges() []dag.Edge {
	out := make([]dag.Edge, 0, len(r.data))
	for k, d := range r.data {
		out = append(out, dag.Edge{From: k[0], To: k[1], Data: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// topo is Kahn's algorithm re-sorting the frontier on every pop.
func (r *refDAG) topo() ([]dag.TaskID, error) {
	n := len(r.work)
	if n == 0 {
		return nil, fmt.Errorf("dag: empty workflow")
	}
	indeg := make([]int, n)
	var frontier []dag.TaskID
	for v := 0; v < n; v++ {
		indeg[v] = len(r.pred[v])
		if indeg[v] == 0 {
			frontier = append(frontier, dag.TaskID(v))
		}
	}
	var order []dag.TaskID
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, s := range r.succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: workflow contains a cycle")
	}
	return order, nil
}

func (r *refDAG) levels(topo []dag.TaskID) [][]dag.TaskID {
	level := make([]int, len(r.work))
	depth := 0
	for _, id := range topo {
		for _, p := range r.pred[id] {
			level[id] = max(level[id], level[p]+1)
		}
		depth = max(depth, level[id]+1)
	}
	out := make([][]dag.TaskID, depth)
	for i, l := range level {
		out[l] = append(out[l], dag.TaskID(i))
	}
	return out
}

func (r *refDAG) levelsByWork(topo []dag.TaskID) [][]dag.TaskID {
	out := r.levels(topo)
	for _, lvl := range out {
		sort.SliceStable(lvl, func(i, j int) bool { return r.work[lvl[i]] > r.work[lvl[j]] })
	}
	return out
}

// reduce is the old TransitiveReduction: drop, in sorted edge order, each
// zero-data edge whose target the progressively reduced clone still
// reaches another way.
func (r *refDAG) reduce() *refDAG {
	c := r.clone()
	for _, e := range r.edges() {
		if e.Data != 0 || !c.reachableWithout(e.From, e.To) {
			continue
		}
		delete(c.data, [2]dag.TaskID{e.From, e.To})
		c.succ[e.From] = slices.DeleteFunc(c.succ[e.From], func(x dag.TaskID) bool { return x == e.To })
		c.pred[e.To] = slices.DeleteFunc(c.pred[e.To], func(x dag.TaskID) bool { return x == e.From })
	}
	return c
}

func (r *refDAG) reachableWithout(from, to dag.TaskID) bool {
	seen := make([]bool, len(r.work))
	var stack []dag.TaskID
	for _, s := range r.succ[from] {
		if s != to {
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == to {
			return true
		}
		if !seen[t] {
			seen[t] = true
			stack = append(stack, r.succ[t]...)
		}
	}
	return false
}

// fuzzGraph decodes a fuzz input into task works and an AddEdge sequence:
// byte 0 picks the task count (0 to 15) and whether edges may point
// backwards (and so close cycles), the next bytes give each task's work
// (with ties), and each of up to 64 following triples is one AddEdge.
// Data sizes are tenths, whose sums depend on their order.
func fuzzGraph(in []byte) (work []float64, edges []dag.Edge) {
	if len(in) == 0 {
		return nil, nil
	}
	n := int(in[0] % 16)
	acyclic := in[0]&0x10 != 0
	in = in[1:]
	for i := 0; i < n; i++ {
		w := 1.0
		if i < len(in) {
			w = float64(in[i] % 8)
		}
		work = append(work, w)
	}
	if n < 2 {
		return work, nil
	}
	in = in[min(n, len(in)):]
	for ; len(in) >= 3 && len(edges) < 64; in = in[3:] {
		from, to := dag.TaskID(int(in[0])%n), dag.TaskID(int(in[1])%n)
		if from == to {
			continue
		}
		if acyclic && from > to {
			from, to = to, from // still inserted out of topological order
		}
		edges = append(edges, dag.Edge{From: from, To: to, Data: float64(in[2]%32) / 10})
	}
	return work, edges
}

func buildFuzz(work []float64, edges []dag.Edge) (*dag.Workflow, *refDAG) {
	w := dag.New("fuzz")
	for i, x := range work {
		w.AddTask(fmt.Sprintf("t%d", i), x)
	}
	ref := newRef(work)
	for _, e := range edges {
		w.AddEdge(e.From, e.To, e.Data)
		ref.addEdge(e.From, e.To, e.Data)
	}
	return w, ref
}

// sameBits compares float slices bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameEdges(a, b []dag.Edge) bool {
	return slices.EqualFunc(a, b, func(x, y dag.Edge) bool {
		return x.From == y.From && x.To == y.To && math.Float64bits(x.Data) == math.Float64bits(y.Data)
	})
}

func sameLevels(a, b [][]dag.TaskID) bool {
	return slices.EqualFunc(a, b, func(x, y []dag.TaskID) bool { return slices.Equal(x, y) })
}

// checkAgainst compares every frozen query of w with the reference.
func checkAgainst(t *testing.T, what string, w *dag.Workflow, ref *refDAG) {
	t.Helper()
	topo, err := ref.topo()
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if err := w.Freeze(); err != nil {
		t.Fatalf("%s: Freeze: %v", what, err)
	}
	n := len(ref.work)
	for i := 0; i < n; i++ {
		id := dag.TaskID(i)
		if !slices.Equal(w.Succ(id), ref.succ[i]) || !slices.Equal(w.Pred(id), ref.pred[i]) {
			t.Fatalf("%s: task %d rows succ %v pred %v, want %v %v", what, i, w.Succ(id), w.Pred(id), ref.succ[i], ref.pred[i])
		}
		var sd, pd []float64
		for _, s := range ref.succ[i] {
			sd = append(sd, ref.data[[2]dag.TaskID{id, s}])
		}
		for _, p := range ref.pred[i] {
			pd = append(pd, ref.data[[2]dag.TaskID{p, id}])
		}
		if !sameBits(w.SuccData(id), sd) || !sameBits(w.PredData(id), pd) {
			t.Fatalf("%s: task %d data succ %v pred %v, want %v %v", what, i, w.SuccData(id), w.PredData(id), sd, pd)
		}
		for j := -1; j <= n; j++ {
			got, ok := w.Data(id, dag.TaskID(j))
			want, wok := ref.data[[2]dag.TaskID{id, dag.TaskID(j)}]
			if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Data(%d, %d) = %v, %v; want %v, %v", what, i, j, got, ok, want, wok)
			}
		}
	}
	if !sameEdges(w.Edges(), ref.edges()) {
		t.Fatalf("%s: Edges %v, want %v", what, w.Edges(), ref.edges())
	}
	if !slices.Equal(w.TopoOrder(), topo) {
		t.Fatalf("%s: TopoOrder %v, want %v", what, w.TopoOrder(), topo)
	}
	if !sameLevels(w.Levels(), ref.levels(topo)) {
		t.Fatalf("%s: Levels %v, want %v", what, w.Levels(), ref.levels(topo))
	}
	if !sameLevels(w.LevelsByWork(), ref.levelsByWork(topo)) {
		t.Fatalf("%s: LevelsByWork %v, want %v", what, w.LevelsByWork(), ref.levelsByWork(topo))
	}
	var entries, exits []dag.TaskID
	for i := 0; i < n; i++ {
		if len(ref.pred[i]) == 0 {
			entries = append(entries, dag.TaskID(i))
		}
		if len(ref.succ[i]) == 0 {
			exits = append(exits, dag.TaskID(i))
		}
	}
	if !slices.Equal(w.Entries(), entries) || !slices.Equal(w.Exits(), exits) {
		t.Fatalf("%s: Entries %v Exits %v, want %v %v", what, w.Entries(), w.Exits(), entries, exits)
	}
}

// FuzzFreeze checks the flat layout against the map-backed construction
// it replaced: rows, data, sorted edges, topological order and levels;
// Clone, SetData and TransitiveReduction on the result; and the errors for
// empty and cyclic graphs.
func FuzzFreeze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x14, 1, 2, 3, 4, 0, 1, 5, 0, 2, 7, 1, 3, 9, 2, 3, 11})            // diamond
	f.Add([]byte{0x13, 5, 5, 5, 2, 0, 3, 2, 0, 4, 1, 0, 1, 2, 0, 2, 1, 1})          // backward, zero data
	f.Add([]byte{0x04, 1, 2, 3, 4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1})             // a cycle
	f.Add([]byte{0x15, 3, 1, 4, 1, 5, 0, 4, 1, 0, 4, 2, 0, 4, 3, 4, 0, 7, 2, 1, 0}) // duplicates
	f.Fuzz(func(t *testing.T, in []byte) {
		work, edges := fuzzGraph(in)
		w, ref := buildFuzz(work, edges)
		if _, err := ref.topo(); err != nil {
			// A failed Freeze leaves the workflow as it was, so it fails
			// the same way again.
			for range 2 {
				if got := w.Freeze(); got == nil || got.Error() != err.Error() {
					t.Fatalf("Freeze error %v, want %v", got, err)
				}
			}
			return
		}
		// Clone before freezing copies the raw list, duplicates included.
		early := w.Clone()
		checkAgainst(t, "frozen", w, ref)
		checkAgainst(t, "clone of unfrozen", early, ref)

		c := w.Clone()
		checkAgainst(t, "clone", c, ref.clone())

		// SetData writes through to the rows; the assignment consumes the
		// edges in sorted order.
		rc := ref.clone()
		k := 0.0
		for _, e := range rc.edges() {
			k++
			rc.data[[2]dag.TaskID{e.From, e.To}] = e.Data*3 + k
		}
		k = 0
		c.SetData(func(e dag.Edge) float64 { k++; return e.Data*3 + k })
		checkAgainst(t, "SetData", c, rc)

		checkAgainst(t, "TransitiveReduction", w.TransitiveReduction(), ref.reduce())
	})
}
