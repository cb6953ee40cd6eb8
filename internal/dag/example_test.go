package dag_test

import (
	"fmt"

	"repro/internal/dag"
)

// Example builds the classic diamond workflow and queries its structure.
func Example() {
	w := dag.New("diamond")
	a := w.AddTask("prepare", 100)
	b := w.AddTask("left", 200)
	c := w.AddTask("right", 300)
	d := w.AddTask("merge", 400)
	w.AddEdge(a, b, 0)
	w.AddEdge(a, c, 0)
	w.AddEdge(b, d, 0)
	w.AddEdge(c, d, 0)

	fmt.Println("levels:", w.Depth())
	fmt.Println("max parallelism:", w.MaxParallelism())
	path, length := w.CriticalPath(dag.CostModel{
		Exec: func(t dag.Task) float64 { return t.Work },
		Comm: func(dag.Edge) float64 { return 0 },
	})
	fmt.Printf("critical path length: %.0f via %d tasks\n", length, len(path))
	// Output:
	// levels: 3
	// max parallelism: 2
	// critical path length: 800 via 3 tasks
}

// ExampleWorkflow_UpwardRanks shows HEFT's task prioritisation: ranks
// decrease along every edge, so sorting by rank yields a valid schedule
// order.
func ExampleWorkflow_UpwardRanks() {
	w := dag.New("chain")
	a := w.AddTask("first", 10)
	b := w.AddTask("second", 20)
	w.AddEdge(a, b, 0)

	ranks := w.UpwardRanks(dag.CostModel{
		Exec: func(t dag.Task) float64 { return t.Work },
		Comm: func(dag.Edge) float64 { return 0 },
	})
	fmt.Printf("rank(first)=%.0f rank(second)=%.0f\n", ranks[a], ranks[b])
	// Output:
	// rank(first)=30 rank(second)=20
}
