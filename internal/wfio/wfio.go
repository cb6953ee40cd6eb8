// Package wfio serializes workflows to and from a stable JSON format, so
// that custom workflows — the paper's announced future work — can be fed to
// the simulator without recompiling. The format is intentionally plain:
//
//	{
//	  "name": "my-workflow",
//	  "tasks": [{"name": "a", "work": 1200.5}, ...],
//	  "edges": [{"from": 0, "to": 1, "data": 1048576}, ...]
//	}
//
// Task indices in edges refer to positions in the tasks array.
package wfio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dag"
)

// File is the JSON document shape.
type File struct {
	Name  string     `json:"name"`
	Tasks []TaskJSON `json:"tasks"`
	Edges []EdgeJSON `json:"edges"`
}

// TaskJSON is one task entry.
type TaskJSON struct {
	Name string  `json:"name"`
	Work float64 `json:"work"`
}

// EdgeJSON is one dependency entry.
type EdgeJSON struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Data float64 `json:"data,omitempty"`
}

// Encode writes the workflow as indented JSON.
func Encode(w io.Writer, wf *dag.Workflow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToFile(wf))
}

// ToFile is the inverse of FromFile: the document of a workflow, tasks in
// TaskID order and edges in the workflow's canonical order, so two
// documents describing one workflow map to the same File.
func ToFile(wf *dag.Workflow) File {
	f := File{Name: wf.Name}
	for _, t := range wf.Tasks() {
		f.Tasks = append(f.Tasks, TaskJSON{Name: t.Name, Work: t.Work})
	}
	for _, e := range wf.Edges() {
		f.Edges = append(f.Edges, EdgeJSON{From: int(e.From), To: int(e.To), Data: e.Data})
	}
	return f
}

// Decode reads a workflow from JSON and validates it (non-empty, acyclic,
// in-range indices, non-negative weights). The returned workflow is frozen.
func Decode(r io.Reader) (*dag.Workflow, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("wfio: %w", err)
	}
	return FromFile(f)
}

// FromFile builds and validates a workflow from a parsed document.
func FromFile(f File) (*dag.Workflow, error) {
	if len(f.Tasks) == 0 {
		return nil, fmt.Errorf("wfio: workflow %q has no tasks", f.Name)
	}
	w := dag.New(f.Name)
	for i, t := range f.Tasks {
		if t.Work < 0 {
			return nil, fmt.Errorf("wfio: task %d has negative work %v", i, t.Work)
		}
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		w.AddTask(name, t.Work)
	}
	for _, e := range f.Edges {
		if e.From < 0 || e.From >= len(f.Tasks) || e.To < 0 || e.To >= len(f.Tasks) {
			return nil, fmt.Errorf("wfio: edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("wfio: self-loop on task %d", e.From)
		}
		if e.Data < 0 {
			return nil, fmt.Errorf("wfio: edge %d->%d has negative data %v", e.From, e.To, e.Data)
		}
		w.AddEdge(dag.TaskID(e.From), dag.TaskID(e.To), e.Data)
	}
	if err := w.Freeze(); err != nil {
		return nil, fmt.Errorf("wfio: %w", err)
	}
	return w, nil
}
