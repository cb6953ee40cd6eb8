// Package dax imports workflows from the Pegasus DAX format — the XML
// dialect the real Montage toolchain (and the Pegasus workflow archive the
// paper's Montage graph comes from) publishes task graphs in. Only the
// subset needed to reconstruct a schedulable DAG is parsed: jobs with
// runtimes, their file usages, and explicit child/parent control links.
// Data-flow edges are additionally derived from file producer/consumer
// relationships, as Pegasus planners do.
//
// The package also exports workflows back to DAX, so synthetic workflows
// generated here can be fed to external Pegasus tooling.
package dax

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/dag"
)

// adag mirrors the <adag> document element.
type adag struct {
	XMLName xml.Name `xml:"adag"`
	Name    string   `xml:"name,attr"`
	Jobs    []job    `xml:"job"`
	Childs  []child  `xml:"child"`
}

type job struct {
	ID      string  `xml:"id,attr"`
	Name    string  `xml:"name,attr"`
	Runtime float64 `xml:"runtime,attr"`
	Uses    []use   `xml:"uses"`
}

type use struct {
	File string  `xml:"file,attr"`
	Link string  `xml:"link,attr"` // "input" or "output"
	Size float64 `xml:"size,attr"`
}

type child struct {
	Ref     string   `xml:"ref,attr"`
	Parents []parent `xml:"parent"`
}

type parent struct {
	Ref string `xml:"ref,attr"`
}

// Decode parses a DAX document into a workflow. Edges come from two
// sources, merged: explicit <child>/<parent> control links (zero data) and
// producer→consumer file relationships (carrying the file size). The
// returned workflow is frozen and valid.
func Decode(r io.Reader) (*dag.Workflow, error) {
	var doc adag
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dax: %w", err)
	}
	if len(doc.Jobs) == 0 {
		return nil, fmt.Errorf("dax: document %q has no jobs", doc.Name)
	}
	name := doc.Name
	if name == "" {
		name = "dax-import"
	}
	w := dag.New(name)
	ids := make(map[string]dag.TaskID, len(doc.Jobs))
	for _, j := range doc.Jobs {
		if j.Runtime < 0 {
			return nil, fmt.Errorf("dax: job %q has negative runtime", j.ID)
		}
		if _, dup := ids[j.ID]; dup {
			return nil, fmt.Errorf("dax: duplicate job id %q", j.ID)
		}
		label := j.Name
		if label == "" {
			label = j.ID
		}
		ids[j.ID] = w.AddTask(label, j.Runtime)
	}

	// File data-flow edges: producer of a file -> each consumer.
	type prodFile struct {
		task dag.TaskID
		size float64
	}
	producers := map[string]prodFile{}
	for _, j := range doc.Jobs {
		for _, u := range j.Uses {
			if u.Link == "output" {
				producers[u.File] = prodFile{task: ids[j.ID], size: u.Size}
			}
		}
	}
	// Deterministic edge insertion order.
	sortedJobs := append([]job(nil), doc.Jobs...)
	sort.Slice(sortedJobs, func(i, k int) bool { return sortedJobs[i].ID < sortedJobs[k].ID })
	for _, j := range sortedJobs {
		for _, u := range j.Uses {
			if u.Link != "input" {
				continue
			}
			p, ok := producers[u.File]
			if !ok || p.task == ids[j.ID] {
				continue // workflow input file, or self-produced
			}
			size := u.Size
			if size == 0 {
				size = p.size
			}
			w.AddEdge(p.task, ids[j.ID], size)
		}
	}
	// Explicit control links.
	for _, c := range doc.Childs {
		to, ok := ids[c.Ref]
		if !ok {
			return nil, fmt.Errorf("dax: child ref %q unknown", c.Ref)
		}
		for _, p := range c.Parents {
			from, ok := ids[p.Ref]
			if !ok {
				return nil, fmt.Errorf("dax: parent ref %q unknown", p.Ref)
			}
			if from == to {
				return nil, fmt.Errorf("dax: self-dependency on %q", c.Ref)
			}
			// A control link shadowing a uses edge adds 0 bytes to it.
			w.AddEdge(from, to, 0)
		}
	}
	if err := w.Freeze(); err != nil {
		return nil, fmt.Errorf("dax: %w", err)
	}
	return w, nil
}

// Encode writes the workflow as a DAX document. Edge data is attached to
// synthetic per-edge files (out_<from>_<to>), which Decode maps back to
// identical edges.
func Encode(w io.Writer, wf *dag.Workflow) error {
	var b []byte
	b = append(b, xml.Header...)
	b = append(b, fmt.Sprintf("<adag name=%q>\n", wf.Name)...)
	for _, t := range wf.Tasks() {
		b = append(b, fmt.Sprintf("  <job id=\"ID%05d\" name=%q runtime=\"%s\">\n",
			t.ID, t.Name, strconv.FormatFloat(t.Work, 'f', -1, 64))...)
		predData := wf.PredData(t.ID)
		for j, p := range wf.Pred(t.ID) {
			b = append(b, fmt.Sprintf("    <uses file=\"out_%d_%d\" link=\"input\" size=\"%s\"/>\n",
				p, t.ID, strconv.FormatFloat(predData[j], 'f', -1, 64))...)
		}
		succData := wf.SuccData(t.ID)
		for j, s := range wf.Succ(t.ID) {
			d := succData[j]
			b = append(b, fmt.Sprintf("    <uses file=\"out_%d_%d\" link=\"output\" size=\"%s\"/>\n",
				t.ID, s, strconv.FormatFloat(d, 'f', -1, 64))...)
		}
		b = append(b, "  </job>\n"...)
	}
	for _, t := range wf.Tasks() {
		preds := wf.Pred(t.ID)
		if len(preds) == 0 {
			continue
		}
		b = append(b, fmt.Sprintf("  <child ref=\"ID%05d\">\n", t.ID)...)
		for _, p := range preds {
			b = append(b, fmt.Sprintf("    <parent ref=\"ID%05d\"/>\n", p)...)
		}
		b = append(b, "  </child>\n"...)
	}
	b = append(b, "</adag>\n"...)
	_, err := w.Write(b)
	return err
}
