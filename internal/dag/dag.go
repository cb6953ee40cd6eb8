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
	"slices"
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
// Under construction a workflow is two flat lists: AddTask appends to the
// task list and AddEdge to the edge list, duplicates included. Freeze lays
// the snapshot out in one O(V+E) pass: it merges duplicate edges, summing
// their data in AddEdge order; it lays out every task's row, its
// successors and predecessors in first-AddEdge order with their data sizes
// aligned; it sorts the edge list by (From, To); and it computes the
// topological order and the level decomposition. Len, Task, Tasks and
// TotalWork read the task list and never freeze; every other query does.
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
//
// Reset ends a snapshot and starts a new workflow in its arrays: an owner
// that builds many short-lived workflows, one at a time, reuses one.
type Workflow struct {
	Name string

	tasks []Task
	// edges is every AddEdge call in order until Freeze, and the distinct
	// edges sorted by (From, To) after, in the same array.
	edges []Edge

	frozen bool
	// reused is set by Reset: such a workflow keeps Freeze's scratch
	// for the next Freeze, which a snapshot that is never reset must not
	// hold.
	reused bool
	// rows[id] is task id's row, subslices of the flat adjacency arrays.
	// Reading a row is one slice-header load on the hot paths of the
	// schedulers, the builders and the simulator.
	rows []row
	// ids backs the rows' task IDs, the topological order and the levels.
	ids []TaskID
	// data holds every row's data sizes: the successor rows' in [0, E),
	// the predecessor rows' in [E, 2E). SetData writes sorted edge k's
	// new size through to data[succAt[k]] and data[E+predAt[k]].
	data []float64
	// at is succAt, predAt and added, E each: added lists the sorted
	// indices of the edges in first-AddEdge order, the order Clone
	// replays them in.
	at    []int32
	topo  []TaskID
	level []int
	depth int
	// levels groups task IDs by level, precomputed by Freeze.
	levels [][]TaskID
	// scratch is Freeze's working memory, kept only once reused is set.
	scratch []int32

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

// row is one task's adjacency in the frozen layout: its successors and
// predecessors in first-AddEdge order, and the data sizes of those edges
// aligned index for index.
type row struct {
	succ, pred         []TaskID
	succData, predData []float64
}

// New returns an empty named workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name}
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
	return id
}

// AddEdge records a dependency carrying data bytes from one task to
// another. Adding the same edge twice accumulates the data sizes, so a
// 0-byte AddEdge onto an existing edge adds nothing. It panics on unknown
// IDs, self-loops, negative data, or a frozen workflow.
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
	w.edges = append(w.edges, Edge{From: from, To: to, Data: data})
}

func (w *Workflow) valid(id TaskID) bool {
	return id >= 0 && int(id) < len(w.tasks)
}

// Reset empties the workflow for reuse under a new name, as New(name)
// would, but keeps the capacity of every array: AddTask and AddEdge append
// into the kept lists, and Freeze lays the next snapshot out into the kept
// rows, adjacency and level arrays. From the first Reset on, Freeze keeps
// its scratch as well. The rank and level memos are dropped.
//
// Reset ends the snapshot: every slice its queries returned aliases
// arrays the next build overwrites. Only an owner that knows no reader
// still holds the snapshot may reset it (DESIGN "Snapshot immutability &
// memoization").
func (w *Workflow) Reset(name string) {
	w.Name = name
	w.tasks = w.tasks[:0]
	w.edges = w.edges[:0]
	w.frozen = false
	w.reused = true
	w.ranks, w.rankOrders, w.workLevels = nil, nil, nil
}

// grow returns s resliced to length n, reallocated only when its capacity
// is short. The elements are not cleared.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// Freeze validates the workflow (it must be a non-empty DAG) and makes it
// immutable. Freeze is idempotent. Once frozen, the workflow is safe for
// concurrent read access — see the type comment. A failed Freeze leaves
// the workflow as it was.
func (w *Workflow) Freeze() error {
	if w.frozen {
		return nil
	}
	n, m := len(w.tasks), len(w.edges)
	if n == 0 {
		return errors.New("dag: empty workflow")
	}
	raw := w.edges
	// One scratch array, carved into per-task and per-edge parts.
	scratch := grow(w.scratch, 4*(n+1)+3*m)
	start, sc := scratch[:n+1], scratch[n+1:]
	clear(start)
	cursor, sc := sc[:n+1], sc[n+1:]
	last, sc := sc[:n+1], sc[n+1:]
	heap, sc := sc[:n+1], sc[n+1:]
	byFrom, sc := sc[:m], sc[m:]
	pos, sc := sc[:m], sc[m:]
	succOf := sc[:m]

	// Bucket the raw edges by source, stably: within a bucket they stay in
	// AddEdge order.
	for _, e := range raw {
		start[e.From+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	copy(cursor, start)
	for i, e := range raw {
		byFrom[cursor[e.From]] = int32(i)
		cursor[e.From]++
	}

	// Successor rows: the first AddEdge of a pair claims the next slot and
	// later ones add their data to it. last[v] is the slot of the pair
	// (u, v) when it is at least the slot the row of u starts at. pos[i] is
	// raw edge i's slot, or -1 for a duplicate.
	ids := grow(w.ids, 2*m+2*n)
	data := grow(w.data, 2*m)
	rows := grow(w.rows, n)
	for v := range last {
		last[v] = -1
	}
	next := int32(0)
	for u := 0; u < n; u++ {
		lo := next
		cursor[u] = lo
		for _, i := range byFrom[start[u]:start[u+1]] {
			to := raw[i].To
			if p := last[to]; p >= lo {
				data[p] += raw[i].Data
				pos[i] = -1
				continue
			}
			last[to] = next
			ids[next] = to
			data[next] = raw[i].Data
			pos[i] = next
			next++
		}
		rows[u].succ = ids[lo:next:next]
		rows[u].succData = data[lo:next:next]
	}
	nE := int(next)

	// Predecessor rows, bucketed by target over the distinct edges in
	// first-AddEdge order. succOf[q] is the successor slot of the edge in
	// predecessor slot q.
	clear(start)
	for i, e := range raw {
		if pos[i] >= 0 {
			start[e.To+1]++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	copy(last, start)
	predIDs, predData := ids[nE:2*nE], data[nE:2*nE]
	for i, e := range raw {
		if p := pos[i]; p >= 0 {
			q := last[e.To]
			last[e.To]++
			predIDs[q] = e.From
			predData[q] = data[p]
			succOf[q] = p
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := start[v], start[v+1]
		rows[v].pred = predIDs[lo:hi:hi]
		rows[v].predData = predData[lo:hi:hi]
	}

	topo := ids[2*m : 2*m+n : 2*m+n]
	if err := kahn(rows, topo, last[:n], heap[:n]); err != nil {
		return err
	}

	// Sort the edge list by (From, To) in place: walking the predecessor
	// rows in target order fills each source's bucket, which spans the same
	// slots as its successor row, in target order. sortedOf maps each
	// successor slot to its sorted index, which orders added.
	at := grow(w.at, 3*nE)
	succAt, predAt, added := edgeSlots(at, nE)
	sorted := raw[:nE]
	sortedOf := byFrom[:nE] // byFrom is spent
	for v := 0; v < n; v++ {
		for q := start[v]; q < start[v+1]; q++ {
			from := predIDs[q]
			k := cursor[from]
			cursor[from]++
			sorted[k] = Edge{From: from, To: TaskID(v), Data: predData[q]}
			succAt[k] = succOf[q]
			predAt[k] = q
			sortedOf[succOf[q]] = k
		}
	}
	j := 0
	for _, p := range pos {
		if p >= 0 {
			added[j] = sortedOf[p]
			j++
		}
	}

	w.edges = sorted
	w.rows, w.ids = rows, ids
	w.data = data[:2*nE]
	w.at = at
	w.topo = topo
	w.computeLevels()
	w.groupLevels(ids[2*m+n:], last)
	if w.reused {
		w.scratch = scratch
	}
	w.frozen = true
	return nil
}

// edgeSlots carves at, the snapshot's three per-edge arrays, for nE
// distinct edges.
func edgeSlots(at []int32, nE int) (succAt, predAt, added []int32) {
	return at[:nE:nE], at[nE : 2*nE : 2*nE], at[2*nE : 3*nE : 3*nE]
}

// kahn writes a deterministic topological order into topo — Kahn's
// algorithm, popping the smallest ready ID from a min-heap — or returns
// an error when the rows have a cycle. indeg and heap are scratch of one
// int32 per task.
func kahn(rows []row, topo []TaskID, indeg, heap []int32) error {
	heap = heap[:0]
	for v := range rows {
		indeg[v] = int32(len(rows[v].pred))
		if indeg[v] == 0 {
			heap = append(heap, int32(v)) // ascending IDs: already a heap
		}
	}
	n := 0
	for len(heap) > 0 {
		next := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		siftDown(heap)
		topo[n] = TaskID(next)
		n++
		for _, s := range rows[next].succ {
			indeg[s]--
			if indeg[s] == 0 {
				heap = append(heap, int32(s))
				siftUp(heap)
			}
		}
	}
	if n != len(rows) {
		return errors.New("dag: workflow contains a cycle")
	}
	return nil
}

// siftUp restores the min-heap after an append.
func siftUp(h []int32) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap after its root was replaced.
func siftDown(h []int32) {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		least := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			least = r
		}
		if h[i] <= h[least] {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// groupLevels precomputes the level decomposition into flat, one slot per
// task: task IDs grouped by level, in ID order within a level. counts is
// scratch of at least Depth int32s.
func (w *Workflow) groupLevels(flat []TaskID, counts []int32) {
	counts = counts[:w.depth]
	clear(counts)
	for _, l := range w.level {
		counts[l]++
	}
	w.levels = grow(w.levels, w.depth)
	off := int32(0)
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
// structurally invalid graph fails loudly rather than silently. It is
// small enough to inline, so a query on a frozen workflow pays one branch.
func (w *Workflow) mustFreeze() {
	if !w.frozen {
		w.freezeOrPanic()
	}
}

func (w *Workflow) freezeOrPanic() {
	if err := w.Freeze(); err != nil {
		panic(err)
	}
}

// computeLevels assigns each task its level: entry tasks are level 0 and
// every other task is one more than its deepest predecessor (longest-path
// depth). This is the "level ranking" used by the AllPar* algorithms.
func (w *Workflow) computeLevels() {
	w.level = grow(w.level, len(w.tasks))
	w.depth = 0
	for _, id := range w.topo {
		lvl := 0
		for _, p := range w.rows[id].pred {
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

// Succ returns the successors of a task in first-AddEdge order. The
// workflow is frozen if it was not already; the returned slice must not
// be modified.
func (w *Workflow) Succ(id TaskID) []TaskID {
	w.mustFreeze()
	return w.rows[id].succ
}

// Pred returns the predecessors of a task in first-AddEdge order. The
// workflow is frozen if it was not already; the returned slice must not
// be modified.
func (w *Workflow) Pred(id TaskID) []TaskID {
	w.mustFreeze()
	return w.rows[id].pred
}

// Data returns the data size carried by the edge from→to, and whether the
// edge exists. It scans the source task's row; the workflow is frozen if
// it was not already.
func (w *Workflow) Data(from, to TaskID) (float64, bool) {
	w.mustFreeze()
	if !w.valid(from) {
		return 0, false
	}
	r := &w.rows[from]
	for j, s := range r.succ {
		if s == to {
			return r.succData[j], true
		}
	}
	return 0, false
}

// Edges returns all edges sorted by (From, To), one per distinct pair.
// The workflow is frozen if it was not already; the slice is the
// snapshot's own and must not be modified.
func (w *Workflow) Edges() []Edge {
	w.mustFreeze()
	return slices.Clip(w.edges)
}

// SuccData returns the data sizes of the edges to a task's successors,
// aligned with Succ(id). The workflow is frozen if it was not already; the
// returned slice must not be modified.
func (w *Workflow) SuccData(id TaskID) []float64 {
	w.mustFreeze()
	return w.rows[id].succData
}

// PredData returns the data sizes of the edges from a task's predecessors,
// aligned with Pred(id). The workflow is frozen if it was not already; the
// returned slice must not be modified.
func (w *Workflow) PredData(id TaskID) []float64 {
	w.mustFreeze()
	return w.rows[id].predData
}

// Entries returns the tasks with no predecessors, in ID order.
func (w *Workflow) Entries() []TaskID {
	w.mustFreeze()
	out := make([]TaskID, 0, 4)
	for i := range w.rows {
		if len(w.rows[i].pred) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns the tasks with no successors, in ID order.
func (w *Workflow) Exits() []TaskID {
	w.mustFreeze()
	out := make([]TaskID, 0, 4)
	for i := range w.rows {
		if len(w.rows[i].succ) == 0 {
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
// random stream deterministically; the workflow is frozen first if it was
// not already.
func (w *Workflow) SetData(assign func(e Edge) float64) {
	w.mustFreeze()
	pred := w.data[len(w.edges):]
	succAt, predAt, _ := edgeSlots(w.at, len(w.edges))
	for k, e := range w.edges {
		d := assign(e)
		if d < 0 {
			panic(fmt.Sprintf("dag: negative data for edge %d->%d", e.From, e.To))
		}
		w.edges[k].Data = d
		w.data[succAt[k]] = d
		pred[predAt[k]] = d
	}
	w.invalidateRanks()
}

// Clone returns a deep copy sharing no state with the receiver. The clone
// is unfrozen, so its weights and structure may be modified; it carries
// none of the receiver's memoized snapshot state. A frozen receiver's
// edges are replayed in first-AddEdge order, one per distinct pair, so
// the clone freezes to the same rows.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{Name: w.Name, tasks: slices.Clone(w.tasks)}
	if !w.frozen {
		c.edges = slices.Clone(w.edges)
		return c
	}
	_, _, added := edgeSlots(w.at, len(w.edges))
	c.edges = make([]Edge, len(added))
	for j, k := range added {
		c.edges[j] = w.edges[k]
	}
	return c
}

// String returns a short human-readable summary.
func (w *Workflow) String() string {
	depth := w.Depth()
	return fmt.Sprintf("%s{tasks: %d, edges: %d, depth: %d}",
		w.Name, len(w.tasks), len(w.edges), depth)
}
