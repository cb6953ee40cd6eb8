// Package dot exports workflows and schedules in Graphviz DOT syntax for
// visual inspection: workflow graphs show tasks (labelled with their
// reference work) and data edges; schedule graphs additionally cluster
// tasks by the VM that hosts them.
package dot

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dag"
)

// Workflow writes the DAG as a digraph.
func Workflow(w io.Writer, wf *dag.Workflow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n", sanitize(wf.Name))
	for _, t := range wf.Tasks() {
		fmt.Fprintf(&b, "  t%d [label=\"%s\\n%.0fs\"];\n", t.ID, escape(t.Name), t.Work)
	}
	for _, e := range wf.Edges() {
		if e.Data > 0 {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%.0fMB\"];\n", e.From, e.To, e.Data/(1<<20))
		} else {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

func escape(s string) string {
	return strings.NewReplacer(`"`, `\"`, `\`, `\\`).Replace(s)
}
