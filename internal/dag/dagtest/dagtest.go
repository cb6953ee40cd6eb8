// Package dagtest provides deterministic random workflow generators for
// property-based tests across the repository. It lives outside the _test
// files so that every package testing schedulers, validators and the
// simulator can share one source of random DAGs.
package dagtest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/stats"
)

// Config bounds the random workflows produced by Random.
type Config struct {
	MinTasks, MaxTasks int     // inclusive bounds on task count
	EdgeProb           float64 // probability of an edge between comparable pairs
	MinWork, MaxWork   float64 // uniform work range, seconds
	MaxData            float64 // uniform data range upper bound, bytes (0 = no data)
}

// DefaultConfig matches the scale of the paper's workflows: a few dozen
// tasks with moderate connectivity.
func DefaultConfig() Config {
	return Config{
		MinTasks: 1,
		MaxTasks: 40,
		EdgeProb: 0.2,
		MinWork:  10,
		MaxWork:  5000,
		MaxData:  64 << 20,
	}
}

// Random generates a random DAG. Edges only ever point from lower to higher
// task ID, which guarantees acyclicity. The result is frozen and valid.
func Random(seed uint64, cfg Config) *dag.Workflow {
	r := stats.NewRNG(seed)
	n := cfg.MinTasks
	if cfg.MaxTasks > cfg.MinTasks {
		n += r.Intn(cfg.MaxTasks - cfg.MinTasks + 1)
	}
	w := dag.New(fmt.Sprintf("random-%d", seed))
	ids := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		work := r.Range(cfg.MinWork, cfg.MaxWork)
		ids[i] = w.AddTask(fmt.Sprintf("t%d", i), work)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < cfg.EdgeProb {
				data := 0.0
				if cfg.MaxData > 0 {
					data = r.Range(0, cfg.MaxData)
				}
				w.AddEdge(ids[i], ids[j], data)
			}
		}
	}
	if err := w.Freeze(); err != nil {
		panic(err) // unreachable: construction is acyclic by design
	}
	return w
}

// Chain returns a linear workflow of n tasks with the given uniform work.
func Chain(n int, work float64) *dag.Workflow {
	w := dag.New(fmt.Sprintf("chain-%d", n))
	var prev dag.TaskID = -1
	for i := 0; i < n; i++ {
		id := w.AddTask(fmt.Sprintf("c%d", i), work)
		if prev >= 0 {
			w.AddEdge(prev, id, 0)
		}
		prev = id
	}
	if err := w.Freeze(); err != nil {
		panic(err)
	}
	return w
}

// ForkJoin returns a workflow with one entry fanning out to width parallel
// tasks that re-join into one exit. Work is uniform.
func ForkJoin(width int, work float64) *dag.Workflow {
	w := dag.New(fmt.Sprintf("forkjoin-%d", width))
	entry := w.AddTask("entry", work)
	exit := w.AddTask("exit", work)
	for i := 0; i < width; i++ {
		mid := w.AddTask(fmt.Sprintf("mid%d", i), work)
		w.AddEdge(entry, mid, 0)
		w.AddEdge(mid, exit, 0)
	}
	if err := w.Freeze(); err != nil {
		panic(err)
	}
	return w
}

// Diff freezes two workflows and compares every query of them bit for bit:
// the name and the tasks, each task's successor and predecessor rows with
// their data sizes and its level, the sorted edges, the topological order,
// the levels in ID and in work order, the entries and exits, the upward
// ranks and rank order under a memoized and an unmemoized cost model, and
// all of that again for their clones. It returns the first difference, or
// nil when there is none.
func Diff(got, want *dag.Workflow) error {
	if err := diff(got, want); err != nil {
		return err
	}
	if err := diff(got.Clone(), want.Clone()); err != nil {
		return fmt.Errorf("clone: %w", err)
	}
	return nil
}

func diff(got, want *dag.Workflow) error {
	if err := got.Freeze(); err != nil {
		return err
	}
	if err := want.Freeze(); err != nil {
		return err
	}
	if got.Name != want.Name {
		return fmt.Errorf("name %q, want %q", got.Name, want.Name)
	}
	if gt, wt := got.Tasks(), want.Tasks(); !slices.EqualFunc(gt, wt, func(a, b dag.Task) bool {
		return a.ID == b.ID && a.Name == b.Name && same(a.Work, b.Work)
	}) {
		return fmt.Errorf("tasks %v, want %v", gt, wt)
	}
	for i := range want.Len() {
		id := dag.TaskID(i)
		switch {
		case !slices.Equal(got.Succ(id), want.Succ(id)):
			return fmt.Errorf("task %d successors %v, want %v", i, got.Succ(id), want.Succ(id))
		case !slices.Equal(got.Pred(id), want.Pred(id)):
			return fmt.Errorf("task %d predecessors %v, want %v", i, got.Pred(id), want.Pred(id))
		case !slices.EqualFunc(got.SuccData(id), want.SuccData(id), same):
			return fmt.Errorf("task %d successor data %v, want %v", i, got.SuccData(id), want.SuccData(id))
		case !slices.EqualFunc(got.PredData(id), want.PredData(id), same):
			return fmt.Errorf("task %d predecessor data %v, want %v", i, got.PredData(id), want.PredData(id))
		case got.Level(id) != want.Level(id):
			return fmt.Errorf("task %d level %d, want %d", i, got.Level(id), want.Level(id))
		}
	}
	if ge, we := got.Edges(), want.Edges(); !slices.EqualFunc(ge, we, func(a, b dag.Edge) bool {
		return a.From == b.From && a.To == b.To && same(a.Data, b.Data)
	}) {
		return fmt.Errorf("edges %v, want %v", ge, we)
	}
	if !slices.Equal(got.TopoOrder(), want.TopoOrder()) {
		return fmt.Errorf("topological order %v, want %v", got.TopoOrder(), want.TopoOrder())
	}
	if got.Depth() != want.Depth() || !equalLevels(got.Levels(), want.Levels()) {
		return fmt.Errorf("levels %v, want %v", got.Levels(), want.Levels())
	}
	if !equalLevels(got.LevelsByWork(), want.LevelsByWork()) {
		return fmt.Errorf("levels by work %v, want %v", got.LevelsByWork(), want.LevelsByWork())
	}
	if !slices.Equal(got.Entries(), want.Entries()) || !slices.Equal(got.Exits(), want.Exits()) {
		return fmt.Errorf("entries %v exits %v, want %v %v", got.Entries(), got.Exits(), want.Entries(), want.Exits())
	}
	for _, key := range []string{"dagtest.Diff", ""} {
		m := dag.CostModel{
			Exec: func(t dag.Task) float64 { return t.Work / 3 },
			Comm: func(e dag.Edge) float64 { return e.Data / 7 },
			Key:  key,
		}
		if gr, wr := got.UpwardRanks(m), want.UpwardRanks(m); !slices.EqualFunc(gr, wr, same) {
			return fmt.Errorf("upward ranks (key %q) %v, want %v", key, gr, wr)
		}
		if !slices.Equal(got.RankOrder(m), want.RankOrder(m)) {
			return fmt.Errorf("rank order (key %q) %v, want %v", key, got.RankOrder(m), want.RankOrder(m))
		}
	}
	return nil
}

// same compares two floats bit for bit.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func equalLevels(a, b [][]dag.TaskID) bool {
	return slices.EqualFunc(a, b, func(x, y []dag.TaskID) bool { return slices.Equal(x, y) })
}
