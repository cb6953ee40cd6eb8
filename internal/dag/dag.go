// Package dag models deterministic scientific workflows as directed acyclic
// graphs of tasks, in the sense of the paper's Sect. I: the execution path
// is known a priori, tasks carry a computational weight (their execution
// time on the reference "small" instance), and edges carry the amount of
// data handed from producer to consumer.
//
// The package provides the graph algorithms every scheduler in this
// repository builds on: topological ordering, level decomposition (the
// "level ranking" of the paper's Sect. III-B), critical-path extraction and
// HEFT upward ranks.
package dag

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// TaskID identifies a task within one workflow. IDs are dense indices
// assigned in insertion order, which makes them usable as slice indices.
type TaskID int

// Task is one node of a workflow.
type Task struct {
	ID   TaskID
	Name string
	// Work is the task's execution time, in seconds, on the reference
	// instance type (speed-up 1). Faster instances divide this value by
	// their speed-up factor.
	Work float64
}

// Edge is a producer→consumer dependency annotated with the size of the
// data set transferred, in bytes. Data is zero for pure control
// dependencies.
type Edge struct {
	From, To TaskID
	Data     float64
}

// Workflow is a mutable DAG under construction and an immutable one once
// Freeze (or any query method, which freezes implicitly) has been called.
// The zero value is an empty workflow ready for use.
//
// A frozen workflow is an immutable snapshot: every query method is safe
// for concurrent use, so schedulers (and the sweep driver's workers) share
// one frozen workflow read-only instead of cloning it per run. The only
// mutations still permitted on a frozen workflow are SetWork and SetData,
// which re-weight tasks or edges in place; they are not safe to call
// concurrently with queries and they invalidate the snapshot's memoized
// derived state (see below).
//
// Freezing also builds a per-snapshot memo: the topological order, the
// level decomposition and the sorted edge list are computed once, and
// upward-rank vectors are cached per cost-model identity (CostModel.Key),
// so that a catalog of strategies scheduling the same workflow computes
// each rank vector once instead of once per strategy.
type Workflow struct {
	Name string

	tasks []Task
	succ  [][]TaskID
	pred  [][]TaskID
	data  map[[2]TaskID]float64

	frozen bool
	topo   []TaskID
	level  []int
	depth  int

	// Derived state of the frozen snapshot, precomputed by Freeze:
	// levels groups task IDs by level, edges is the sorted edge list, and
	// succData/predData carry each edge's data size aligned with succ/pred
	// (so hot paths avoid the data-map lookup). SetData rebuilds them.
	levels   [][]TaskID
	edges    []Edge
	succData [][]float64
	predData [][]float64

	// ranks memoizes UpwardRanks (and rankOrders RankOrder) per
	// CostModel.Key. Guarded by rankMu: rank queries on a shared frozen
	// workflow may race from concurrent schedulers. SetWork and SetData
	// drop the maps wholesale. workLevels memoizes LevelsByWork under the
	// same lock and is invalidated alongside (its order depends on Work).
	rankMu     sync.RWMutex
	ranks      map[string][]float64
	rankOrders map[string][]TaskID
	workLevels [][]TaskID
}

// New returns an empty named workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, data: map[[2]TaskID]float64{}}
}

// AddTask appends a task with the given name and reference execution time
// and returns its ID. It panics if the workflow is frozen or work is
// negative.
func (w *Workflow) AddTask(name string, work float64) TaskID {
	if w.frozen {
		panic("dag: AddTask on frozen workflow")
	}
	if work < 0 {
		panic(fmt.Sprintf("dag: negative work %v for task %q", work, name))
	}
	id := TaskID(len(w.tasks))
	w.tasks = append(w.tasks, Task{ID: id, Name: name, Work: work})
	w.succ = append(w.succ, nil)
	w.pred = append(w.pred, nil)
	return id
}

// AddEdge records a dependency carrying data bytes from one task to
// another. Adding the same edge twice accumulates the data sizes. It panics
// on unknown IDs, self-loops, negative data, or a frozen workflow.
func (w *Workflow) AddEdge(from, to TaskID, data float64) {
	if w.frozen {
		panic("dag: AddEdge on frozen workflow")
	}
	if !w.valid(from) || !w.valid(to) {
		panic(fmt.Sprintf("dag: edge %d->%d references unknown task", from, to))
	}
	if from == to {
		panic(fmt.Sprintf("dag: self-loop on task %d", from))
	}
	if data < 0 {
		panic(fmt.Sprintf("dag: negative data on edge %d->%d", from, to))
	}
	if w.data == nil {
		w.data = map[[2]TaskID]float64{}
	}
	key := [2]TaskID{from, to}
	if _, dup := w.data[key]; dup {
		w.data[key] += data
		return
	}
	w.data[key] = data
	w.succ[from] = append(w.succ[from], to)
	w.pred[to] = append(w.pred[to], from)
}

func (w *Workflow) valid(id TaskID) bool {
	return id >= 0 && int(id) < len(w.tasks)
}

// Freeze validates the workflow (it must be a non-empty DAG) and makes it
// immutable. Freeze is idempotent. Once frozen, the workflow is safe for
// concurrent read access — see the type comment.
func (w *Workflow) Freeze() error {
	if w.frozen {
		return nil
	}
	if len(w.tasks) == 0 {
		return errors.New("dag: empty workflow")
	}
	topo, err := w.computeTopo()
	if err != nil {
		return err
	}
	w.topo = topo
	w.computeLevels()
	w.groupLevels()
	w.rebuildEdgeCaches()
	w.frozen = true
	return nil
}

// groupLevels precomputes the level decomposition: task IDs grouped by
// level, in ID order within a level (the same content Levels always
// returned, now built once at freeze time).
func (w *Workflow) groupLevels() {
	counts := make([]int, w.depth)
	for _, l := range w.level {
		counts[l]++
	}
	flat := make([]TaskID, len(w.tasks))
	w.levels = make([][]TaskID, w.depth)
	off := 0
	for l, c := range counts {
		w.levels[l] = flat[off : off : off+c]
		off += c
	}
	// Visiting tasks in ID order fills each level in ID order directly.
	for i := range w.tasks {
		l := w.level[i]
		w.levels[l] = append(w.levels[l], TaskID(i))
	}
}

// rebuildEdgeCaches precomputes the sorted edge list and the per-endpoint
// data-size slices aligned with succ/pred, eliminating data-map lookups
// from rank computations, builders and the simulator. Called at freeze
// time and again by SetData.
func (w *Workflow) rebuildEdgeCaches() {
	w.edges = w.computeEdges()
	n := len(w.tasks)
	var total int
	for i := 0; i < n; i++ {
		total += len(w.succ[i])
	}
	flat := make([]float64, 2*total)
	w.succData = make([][]float64, n)
	w.predData = make([][]float64, n)
	off := 0
	for i := 0; i < n; i++ {
		sd := flat[off : off+len(w.succ[i])]
		off += len(w.succ[i])
		for j, s := range w.succ[i] {
			sd[j] = w.data[[2]TaskID{TaskID(i), s}]
		}
		w.succData[i] = sd
	}
	for i := 0; i < n; i++ {
		pd := flat[off : off+len(w.pred[i])]
		off += len(w.pred[i])
		for j, p := range w.pred[i] {
			pd[j] = w.data[[2]TaskID{p, TaskID(i)}]
		}
		w.predData[i] = pd
	}
}

// invalidateRanks drops the memoized rank vectors; called by SetWork and
// SetData, whose re-weighting changes every cost model's estimates.
func (w *Workflow) invalidateRanks() {
	w.rankMu.Lock()
	w.ranks = nil
	w.rankOrders = nil
	w.workLevels = nil
	w.rankMu.Unlock()
}

// mustFreeze freezes and panics on error; used by query methods so that a
// structurally invalid graph fails loudly rather than silently.
func (w *Workflow) mustFreeze() {
	if err := w.Freeze(); err != nil {
		panic(err)
	}
}

// computeTopo returns a deterministic topological order (Kahn's algorithm
// with a sorted frontier) or an error when the graph has a cycle.
func (w *Workflow) computeTopo() ([]TaskID, error) {
	n := len(w.tasks)
	indeg := make([]int, n)
	for to := range w.pred {
		indeg[to] = len(w.pred[to])
	}
	frontier := make([]TaskID, 0, 8)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		next := frontier[0]
		frontier = frontier[1:]
		order = append(order, next)
		for _, s := range w.succ[next] {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("dag: workflow contains a cycle")
	}
	return order, nil
}

// computeLevels assigns each task its level: entry tasks are level 0 and
// every other task is one more than its deepest predecessor (longest-path
// depth). This is the "level ranking" used by the AllPar* algorithms.
func (w *Workflow) computeLevels() {
	w.level = make([]int, len(w.tasks))
	w.depth = 0
	for _, id := range w.topo {
		lvl := 0
		for _, p := range w.pred[id] {
			if w.level[p]+1 > lvl {
				lvl = w.level[p] + 1
			}
		}
		w.level[id] = lvl
		if lvl+1 > w.depth {
			w.depth = lvl + 1
		}
	}
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.tasks) }

// Task returns a copy of the task with the given ID. It panics on unknown
// IDs.
func (w *Workflow) Task(id TaskID) Task {
	if !w.valid(id) {
		panic(fmt.Sprintf("dag: unknown task %d", id))
	}
	return w.tasks[id]
}

// Tasks returns a copy of all tasks in ID order.
func (w *Workflow) Tasks() []Task {
	return append([]Task(nil), w.tasks...)
}

// Succ returns the successors of a task. The returned slice must not be
// modified.
func (w *Workflow) Succ(id TaskID) []TaskID { return w.succ[id] }

// Pred returns the predecessors of a task. The returned slice must not be
// modified.
func (w *Workflow) Pred(id TaskID) []TaskID { return w.pred[id] }

// Data returns the data size carried by the edge from→to, and whether the
// edge exists.
func (w *Workflow) Data(from, to TaskID) (float64, bool) {
	d, ok := w.data[[2]TaskID{from, to}]
	return d, ok
}

// Edges returns all edges sorted by (From, To). On a frozen workflow the
// slice is the snapshot's memoized copy, computed once; it must not be
// modified.
func (w *Workflow) Edges() []Edge {
	if w.frozen {
		return w.edges
	}
	return w.computeEdges()
}

func (w *Workflow) computeEdges() []Edge {
	out := make([]Edge, 0, len(w.data))
	for k, d := range w.data {
		out = append(out, Edge{From: k[0], To: k[1], Data: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// SuccData returns the data sizes of the edges to a task's successors,
// aligned with Succ(id). The workflow is frozen if it was not already; the
// returned slice must not be modified.
func (w *Workflow) SuccData(id TaskID) []float64 {
	w.mustFreeze()
	return w.succData[id]
}

// PredData returns the data sizes of the edges from a task's predecessors,
// aligned with Pred(id). The workflow is frozen if it was not already; the
// returned slice must not be modified.
func (w *Workflow) PredData(id TaskID) []float64 {
	w.mustFreeze()
	return w.predData[id]
}

// Entries returns the tasks with no predecessors, in ID order.
func (w *Workflow) Entries() []TaskID {
	out := make([]TaskID, 0, 4)
	for i := range w.tasks {
		if len(w.pred[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns the tasks with no successors, in ID order.
func (w *Workflow) Exits() []TaskID {
	out := make([]TaskID, 0, 4)
	for i := range w.tasks {
		if len(w.succ[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TopoOrder returns a deterministic topological order. The workflow is
// frozen if it was not already; TopoOrder panics if it is not a DAG. The
// returned slice is the snapshot's own and must not be modified.
func (w *Workflow) TopoOrder() []TaskID {
	w.mustFreeze()
	return w.topo
}

// Level returns the level (longest-path depth from the entries) of a task.
func (w *Workflow) Level(id TaskID) int {
	w.mustFreeze()
	return w.level[id]
}

// Depth returns the number of levels.
func (w *Workflow) Depth() int {
	w.mustFreeze()
	return w.depth
}

// Levels groups task IDs by level, index 0 being the entry level. Tasks
// within a level are in ID order. Tasks in the same level are mutually
// independent (no path connects them). The returned slices are the
// snapshot's memoized decomposition and must not be modified.
func (w *Workflow) Levels() [][]TaskID {
	w.mustFreeze()
	return w.levels
}

// LevelsByWork is Levels with each level ordered by decreasing Work, ties
// by ID — the deterministic in-level order of the level-based schedulers
// ("level ranking + ET descending"). The instance type scales every
// execution time by the same factor, so one ordering serves all types; it
// is memoized per snapshot and invalidated with the rank memos when
// SetWork or SetData re-weight the workflow. The returned slices must not
// be modified.
func (w *Workflow) LevelsByWork() [][]TaskID {
	w.mustFreeze()
	w.rankMu.RLock()
	wl := w.workLevels
	w.rankMu.RUnlock()
	if wl != nil {
		return wl
	}
	flat := make([]TaskID, len(w.tasks))
	wl = make([][]TaskID, len(w.levels))
	off := 0
	for l, lvl := range w.levels {
		sorted := flat[off : off+len(lvl)]
		off += len(lvl)
		copy(sorted, lvl)
		// (work desc, ID asc) is a total order over distinct tasks, so the
		// unstable sort is deterministic.
		sort.Slice(sorted, func(i, j int) bool {
			wa, wb := w.tasks[sorted[i]].Work, w.tasks[sorted[j]].Work
			if wa != wb {
				return wa > wb
			}
			return sorted[i] < sorted[j]
		})
		wl[l] = sorted
	}
	w.rankMu.Lock()
	w.workLevels = wl
	w.rankMu.Unlock()
	return wl
}

// TotalWork returns the sum of all task reference execution times.
func (w *Workflow) TotalWork() float64 {
	var sum float64
	for _, t := range w.tasks {
		sum += t.Work
	}
	return sum
}

// MaxParallelism returns the size of the largest level: the maximum number
// of tasks the level-based schedulers may run concurrently.
func (w *Workflow) MaxParallelism() int {
	max := 0
	for _, lvl := range w.Levels() {
		if len(lvl) > max {
			max = len(lvl)
		}
	}
	return max
}

// SetWork rewrites every task's reference execution time using the given
// assignment function. It is the hook the workload scenarios (Pareto, best
// case, worst case) use to re-weight a structural workflow, and is (with
// SetData) the only mutation allowed on a frozen workflow: it does not
// change the structure, but it does invalidate the snapshot's memoized
// rank vectors. It must not be called concurrently with queries.
func (w *Workflow) SetWork(assign func(t Task) float64) {
	for i := range w.tasks {
		work := assign(w.tasks[i])
		if work < 0 {
			panic(fmt.Sprintf("dag: negative work for task %d", i))
		}
		w.tasks[i].Work = work
	}
	w.invalidateRanks()
}

// SetData rewrites every edge's data size using the given assignment
// function, analogously to SetWork. Edges are visited in sorted
// (From, To) order so that stochastic assignment functions consume their
// random stream deterministically.
func (w *Workflow) SetData(assign func(e Edge) float64) {
	for _, e := range w.Edges() {
		d := assign(e)
		if d < 0 {
			panic(fmt.Sprintf("dag: negative data for edge %d->%d", e.From, e.To))
		}
		w.data[[2]TaskID{e.From, e.To}] = d
	}
	if w.frozen {
		w.rebuildEdgeCaches()
	}
	w.invalidateRanks()
}

// Clone returns a deep copy sharing no state with the receiver. The clone
// is unfrozen, so its weights and structure may be modified; it carries
// none of the receiver's memoized snapshot state.
func (w *Workflow) Clone() *Workflow {
	c := New(w.Name)
	c.tasks = append([]Task(nil), w.tasks...)
	c.succ = make([][]TaskID, len(w.succ))
	c.pred = make([][]TaskID, len(w.pred))
	for i := range w.succ {
		c.succ[i] = append([]TaskID(nil), w.succ[i]...)
		c.pred[i] = append([]TaskID(nil), w.pred[i]...)
	}
	for k, v := range w.data {
		c.data[k] = v
	}
	return c
}

// String returns a short human-readable summary.
func (w *Workflow) String() string {
	return fmt.Sprintf("%s{tasks: %d, edges: %d, depth: %d}",
		w.Name, len(w.tasks), len(w.data), w.Depth())
}
