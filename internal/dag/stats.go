package dag

import "math"

// Profile summarizes a workflow's structural and weight characteristics —
// the properties the paper's Table V keys its recommendations on (amount
// of parallelism, interdependencies, task heterogeneity).
type Profile struct {
	Tasks  int
	Edges  int
	Depth  int
	Levels []int // tasks per level
	// MaxWidth and MeanWidth characterize the parallelism.
	MaxWidth  int
	MeanWidth float64
	// TotalWork and the work spread characterize the execution times.
	TotalWork         float64
	MinWork, MaxWork  float64
	MeanWork          float64
	HeterogeneityCV   float64 // coefficient of variation of task works
	TotalData         float64
	EdgesPerTask      float64
	EntryCount, Exits int
}

// Profile computes the workflow's profile. The workflow is frozen if it
// was not already.
func (w *Workflow) Profile() Profile {
	w.mustFreeze()
	p := Profile{
		Tasks:      w.Len(),
		Edges:      len(w.edges),
		Depth:      w.Depth(),
		EntryCount: len(w.Entries()),
		Exits:      len(w.Exits()),
	}
	for _, lvl := range w.Levels() {
		p.Levels = append(p.Levels, len(lvl))
		if len(lvl) > p.MaxWidth {
			p.MaxWidth = len(lvl)
		}
	}
	if p.Depth > 0 {
		p.MeanWidth = float64(p.Tasks) / float64(p.Depth)
	}
	p.MinWork = w.tasks[0].Work
	for _, t := range w.tasks {
		p.TotalWork += t.Work
		if t.Work < p.MinWork {
			p.MinWork = t.Work
		}
		if t.Work > p.MaxWork {
			p.MaxWork = t.Work
		}
	}
	p.MeanWork = p.TotalWork / float64(p.Tasks)
	if p.MeanWork > 0 && p.Tasks > 1 {
		var ss float64
		for _, t := range w.tasks {
			d := t.Work - p.MeanWork
			ss += d * d
		}
		p.HeterogeneityCV = math.Sqrt(ss/float64(p.Tasks-1)) / p.MeanWork
	}
	for _, e := range w.edges {
		p.TotalData += e.Data
	}
	p.EdgesPerTask = float64(p.Edges) / float64(p.Tasks)
	return p
}

// CCR returns the workflow's communication-to-computation ratio under a
// cost model: total communication time over total execution time. Values
// well below 1 mark CPU-intensive workflows (the paper's evaluation
// regime); values near or above 1 mark data-intensive ones.
func (w *Workflow) CCR(m CostModel) float64 {
	w.mustFreeze()
	var comm, comp float64
	for _, t := range w.tasks {
		comp += m.Exec(t)
	}
	if m.Comm != nil {
		for _, e := range w.Edges() {
			comm += m.Comm(e)
		}
	}
	if comp == 0 {
		return 0
	}
	return comm / comp
}
