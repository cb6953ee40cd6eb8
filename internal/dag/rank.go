package dag

import "sort"

// CostModel supplies the timing estimates the ranking algorithms need: the
// execution time of a task and the communication time along an edge. Both
// are context-free estimates (HEFT classically uses means across the
// resource pool; in a homogeneous run they are exact).
type CostModel struct {
	// Exec returns the estimated execution time of a task, in seconds.
	Exec func(t Task) float64
	// Comm returns the estimated transfer time of an edge, in seconds,
	// assuming producer and consumer run on different machines.
	Comm func(e Edge) float64
	// Key, when non-empty, declares the model's identity for memoization:
	// rank vectors computed under a keyed model are cached on the frozen
	// workflow and shared by every subsequent query with the same key, so
	// a catalog of strategies ranking under the same few cost models (one
	// per instance type) computes each vector once. Two models with the
	// same key MUST return identical estimates for every task and edge of
	// the workflow; results of keyed queries must not be modified. An
	// empty key disables caching.
	Key string
}

// UpwardRanks computes the HEFT upward rank of every task:
//
//	rank(t) = exec(t) + max over successors s of (comm(t→s) + rank(s))
//
// Exit tasks have rank equal to their execution time. The returned slice is
// indexed by TaskID. Under a keyed cost model the result is memoized on the
// frozen workflow and the returned slice must not be modified.
func (w *Workflow) UpwardRanks(m CostModel) []float64 {
	w.mustFreeze()
	if m.Key != "" {
		w.rankMu.RLock()
		rank, ok := w.ranks[m.Key]
		w.rankMu.RUnlock()
		if ok {
			return rank
		}
	}
	rank := w.computeUpwardRanks(m)
	if m.Key != "" {
		w.rankMu.Lock()
		if cached, ok := w.ranks[m.Key]; ok {
			rank = cached // a concurrent query computed the identical vector first
		} else {
			if w.ranks == nil {
				w.ranks = make(map[string][]float64)
			}
			w.ranks[m.Key] = rank
		}
		w.rankMu.Unlock()
	}
	return rank
}

func (w *Workflow) computeUpwardRanks(m CostModel) []float64 {
	rank := make([]float64, len(w.tasks))
	// Walk the topological order backwards so successors are ranked first.
	for i := len(w.topo) - 1; i >= 0; i-- {
		id := w.topo[i]
		best := 0.0
		succ := w.succ[id]
		data := w.succData[id]
		for j, s := range succ {
			c := 0.0
			if m.Comm != nil {
				c = m.Comm(Edge{From: id, To: s, Data: data[j]})
			}
			if v := c + rank[s]; v > best {
				best = v
			}
		}
		rank[id] = m.Exec(w.tasks[id]) + best
	}
	return rank
}

// RankOrder returns all task IDs sorted by decreasing upward rank, breaking
// ties by increasing ID for determinism. This is HEFT's scheduling order;
// it is always a valid topological order because a task's rank strictly
// exceeds each successor's whenever execution times are positive. Under a
// keyed cost model the result is memoized on the frozen workflow and the
// returned slice must not be modified.
func (w *Workflow) RankOrder(m CostModel) []TaskID {
	if m.Key != "" {
		w.mustFreeze()
		w.rankMu.RLock()
		order, ok := w.rankOrders[m.Key]
		w.rankMu.RUnlock()
		if ok {
			return order
		}
	}
	rank := w.UpwardRanks(m)
	order := make([]TaskID, len(w.tasks))
	for i := range order {
		order[i] = TaskID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := rank[order[i]], rank[order[j]]
		if ri != rj {
			return ri > rj
		}
		return order[i] < order[j]
	})
	if m.Key != "" {
		w.rankMu.Lock()
		if cached, ok := w.rankOrders[m.Key]; ok {
			order = cached
		} else {
			if w.rankOrders == nil {
				w.rankOrders = make(map[string][]TaskID)
			}
			w.rankOrders[m.Key] = order
		}
		w.rankMu.Unlock()
	}
	return order
}

// CriticalPath returns the heaviest entry→exit path under the cost model
// (execution plus communication weights) along with its total length. Among
// equally heavy paths the lexicographically smallest (by task ID at each
// divergence) is returned, for determinism.
func (w *Workflow) CriticalPath(m CostModel) ([]TaskID, float64) {
	w.mustFreeze()
	// dist[t]: heaviest path length from t to any exit, inclusive of t.
	dist := make([]float64, len(w.tasks))
	next := make([]TaskID, len(w.tasks))
	for i := range next {
		next[i] = -1
	}
	for i := len(w.topo) - 1; i >= 0; i-- {
		id := w.topo[i]
		dist[id] = m.Exec(w.tasks[id])
		bestVia := TaskID(-1)
		best := 0.0
		succ := w.succ[id]
		data := w.succData[id]
		for j, s := range succ {
			c := 0.0
			if m.Comm != nil {
				c = m.Comm(Edge{From: id, To: s, Data: data[j]})
			}
			v := c + dist[s]
			if v > best || (v == best && bestVia >= 0 && s < bestVia) {
				best = v
				bestVia = s
			}
		}
		if bestVia >= 0 {
			dist[id] += best
			next[id] = bestVia
		}
	}
	// Pick the heaviest entry.
	start := TaskID(-1)
	for _, e := range w.Entries() {
		if start < 0 || dist[e] > dist[start] {
			start = e
		}
	}
	if start < 0 {
		return nil, 0
	}
	var path []TaskID
	for t := start; t >= 0; t = next[t] {
		path = append(path, t)
	}
	return path, dist[start]
}

// IsAncestor reports whether a path exists from a to b (a strictly before
// b). It runs a DFS over successors; results are not cached.
func (w *Workflow) IsAncestor(a, b TaskID) bool {
	if a == b {
		return false
	}
	seen := make([]bool, len(w.tasks))
	stack := []TaskID{a}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range w.succ[t] {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
