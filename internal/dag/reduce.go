package dag

// TransitiveReduction returns an unfrozen clone with redundant
// control-only edges removed: a zero-data edge u→v is redundant when
// another path from u to v exists, so dropping it changes no precedence
// constraint. Edges that carry data are always kept — their payload really
// does move between those tasks, so removing them would change transfer
// volumes. Imported DAX documents often carry redundant control links
// shadowing data-flow paths; reducing them declutters rendering without
// changing any schedule's feasibility.
//
// Dropping a redundant edge keeps every reachability of a DAG, so each
// edge is tested against the receiver itself, and the clone's edges, in
// first-AddEdge order, lose the dropped ones: its rows are the receiver's
// minus the dropped entries.
func (w *Workflow) TransitiveReduction() *Workflow {
	w.mustFreeze()
	drop := make([]bool, len(w.edges))
	for k, e := range w.edges {
		drop[k] = e.Data == 0 && w.reachableWithout(e.From, e.To)
	}
	c := w.Clone()
	_, _, added := edgeSlots(w.at, len(w.edges))
	kept := c.edges[:0]
	for j, e := range c.edges {
		if !drop[added[j]] {
			kept = append(kept, e)
		}
	}
	c.edges = kept
	return c
}

// reachableWithout reports whether to is reachable from from when ignoring
// the direct edge from→to.
func (w *Workflow) reachableWithout(from, to TaskID) bool {
	seen := make([]bool, len(w.tasks))
	stack := []TaskID{}
	for _, s := range w.rows[from].succ {
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
		if seen[t] {
			continue
		}
		seen[t] = true
		stack = append(stack, w.rows[t].succ...)
	}
	return false
}
