// Package workflows builds the four workflow structures of the paper's
// Sect. IV-B (Fig. 2): Montage (astronomical image mosaics, 24 tasks in the
// paper's configuration), CSTEM (a mostly sequential CPU-intensive
// application with several final tasks), MapReduce (two sequential map
// phases feeding a reduce phase) and a plain Sequential chain. All builders
// are parametric; the Paper* helpers return the exact configurations used
// in the evaluation.
//
// Task weights and edge data sizes carry structural defaults only — the
// workload scenarios (internal/workload) overwrite them per experiment.
package workflows

import (
	"fmt"
	"strings"

	"repro/internal/dag"
)

// defaultWork is the placeholder task weight before a workload scenario
// re-weights the workflow.
const defaultWork = 1000

// defaultData is the placeholder edge payload (64 MB).
const defaultData = 64 << 20

// Montage returns a Montage-style mosaic workflow over n input images:
// n mProject entry tasks, n diff-fit tasks over overlapping image pairs
// ((i, i+1) adjacencies plus skip-one extras to reach n), one mConcatFit,
// one mBgModel, n mBackground tasks — each depending on both its
// projection (a cross-level data dependency, the "intermingled" structure
// the paper highlights) and the background model — then mImgTbl, mAdd,
// mShrink and mJPEG. Total tasks: 3n + 6. It panics if n < 2.
func Montage(n int) *dag.Workflow {
	if n < 2 {
		panic(fmt.Sprintf("workflows: Montage needs >= 2 images, got %d", n))
	}
	w := dag.New(fmt.Sprintf("montage-%d", 3*n+6))

	proj := make([]dag.TaskID, n)
	for i := range proj {
		proj[i] = w.AddTask(fmt.Sprintf("mProject%d", i), defaultWork)
	}
	// n overlap pairs: the n-1 adjacent ones, then skip-one pairs where the
	// image count allows, falling back to cycling the adjacent pairs.
	pairs := make([][2]int, 0, n)
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	for i := 0; len(pairs) < n; i++ {
		if n >= 3 {
			a := i % (n - 2)
			pairs = append(pairs, [2]int{a, a + 2})
		} else {
			pairs = append(pairs, [2]int{0, 1})
		}
	}
	diff := make([]dag.TaskID, n)
	for i, pr := range pairs {
		diff[i] = w.AddTask(fmt.Sprintf("mDiffFit%d", i), defaultWork)
		w.AddEdge(proj[pr[0]], diff[i], defaultData)
		w.AddEdge(proj[pr[1]], diff[i], defaultData)
	}
	concat := w.AddTask("mConcatFit", defaultWork)
	for _, d := range diff {
		w.AddEdge(d, concat, defaultData)
	}
	bgModel := w.AddTask("mBgModel", defaultWork)
	w.AddEdge(concat, bgModel, defaultData)

	bg := make([]dag.TaskID, n)
	for i := range bg {
		bg[i] = w.AddTask(fmt.Sprintf("mBackground%d", i), defaultWork)
		w.AddEdge(proj[i], bg[i], defaultData) // cross-level data dependency
		w.AddEdge(bgModel, bg[i], defaultData)
	}
	imgTbl := w.AddTask("mImgTbl", defaultWork)
	for _, b := range bg {
		w.AddEdge(b, imgTbl, defaultData)
	}
	add := w.AddTask("mAdd", defaultWork)
	w.AddEdge(imgTbl, add, defaultData)
	shrink := w.AddTask("mShrink", defaultWork)
	w.AddEdge(add, shrink, defaultData)
	jpeg := w.AddTask("mJPEG", defaultWork)
	w.AddEdge(shrink, jpeg, defaultData)

	mustFreeze(w)
	return w
}

// PaperMontage returns the 24-task Montage used in the paper (6 images).
func PaperMontage() *dag.Workflow { return Montage(6) }

// CSTEM returns the Coupled Structural Thermal Electromagnetic analysis
// workflow in the shape of the paper's Fig. 2(b): a single entry task
// fanning out to a six-task parallel section (the sub-workflow of Fig. 1),
// re-joining into a mostly sequential spine with one small parallel
// section, and ending in several final tasks.
func CSTEM() *dag.Workflow {
	w := dag.New("cstem")
	entry := w.AddTask("init", defaultWork)
	fan := make([]dag.TaskID, 6)
	for i := range fan {
		fan[i] = w.AddTask(fmt.Sprintf("stage1-%d", i), defaultWork)
		w.AddEdge(entry, fan[i], defaultData)
	}
	join := w.AddTask("assemble", defaultWork)
	for _, f := range fan {
		w.AddEdge(f, join, defaultData)
	}
	solve := w.AddTask("solve", defaultWork)
	w.AddEdge(join, solve, defaultData)
	thermal := w.AddTask("thermal", defaultWork)
	electro := w.AddTask("electromagnetic", defaultWork)
	w.AddEdge(solve, thermal, defaultData)
	w.AddEdge(solve, electro, defaultData)
	couple := w.AddTask("couple", defaultWork)
	w.AddEdge(thermal, couple, defaultData)
	w.AddEdge(electro, couple, defaultData)
	for i := 0; i < 3; i++ {
		out := w.AddTask(fmt.Sprintf("report%d", i), defaultWork)
		w.AddEdge(couple, out, defaultData)
	}
	mustFreeze(w)
	return w
}

// MapReduce returns a MapReduce workflow in the shape of the paper's
// Fig. 2(c): one split task, two sequential map phases of m tasks each
// (phase-two map i consumes phase-one map i), r reduce tasks each consuming
// every phase-two map output (the shuffle), and one final merge. It panics
// unless m and r are positive.
func MapReduce(m, r int) *dag.Workflow {
	if m <= 0 || r <= 0 {
		panic(fmt.Sprintf("workflows: MapReduce needs positive phases, got m=%d r=%d", m, r))
	}
	w := dag.New(fmt.Sprintf("mapreduce-%dx%d", m, r))
	split := w.AddTask("split", defaultWork)
	map1 := make([]dag.TaskID, m)
	map2 := make([]dag.TaskID, m)
	for i := 0; i < m; i++ {
		map1[i] = w.AddTask(fmt.Sprintf("map1-%d", i), defaultWork)
		w.AddEdge(split, map1[i], defaultData)
		map2[i] = w.AddTask(fmt.Sprintf("map2-%d", i), defaultWork)
		w.AddEdge(map1[i], map2[i], defaultData)
	}
	merge := w.AddTask("merge", defaultWork)
	for j := 0; j < r; j++ {
		red := w.AddTask(fmt.Sprintf("reduce%d", j), defaultWork)
		for i := 0; i < m; i++ {
			w.AddEdge(map2[i], red, defaultData)
		}
		w.AddEdge(red, merge, defaultData)
	}
	mustFreeze(w)
	return w
}

// PaperMapReduce returns the MapReduce configuration used in the sweep:
// eight mappers per phase and four reducers (22 tasks).
func PaperMapReduce() *dag.Workflow { return MapReduce(8, 4) }

// Sequential returns a pure chain of n tasks — the paper's serial
// application example (makefile-style dependencies). It panics unless n is
// positive.
func Sequential(n int) *dag.Workflow {
	if n <= 0 {
		panic(fmt.Sprintf("workflows: Sequential needs positive length, got %d", n))
	}
	w := dag.New(fmt.Sprintf("sequential-%d", n))
	prev := w.AddTask("s0", defaultWork)
	for i := 1; i < n; i++ {
		next := w.AddTask(fmt.Sprintf("s%d", i), defaultWork)
		w.AddEdge(prev, next, defaultData)
		prev = next
	}
	mustFreeze(w)
	return w
}

// PaperSequential returns the sequential chain used in the sweep (10
// tasks).
func PaperSequential() *dag.Workflow { return Sequential(10) }

// Fig1SubWorkflow returns the CSTEM sub-workflow of the paper's Fig. 1: one
// initial task followed by six tasks that all depend on it.
func Fig1SubWorkflow() *dag.Workflow {
	w := dag.New("fig1-cstem-sub")
	entry := w.AddTask("t0", 2000)
	works := []float64{3000, 2600, 2200, 1800, 1400, 1000}
	for i, wk := range works {
		t := w.AddTask(fmt.Sprintf("t%d", i+1), wk)
		w.AddEdge(entry, t, 0)
	}
	mustFreeze(w)
	return w
}

// named is one workflow of the extended corpus: its display name and the
// constructor of the paper's parameterization.
type named struct {
	name  string
	build func() *dag.Workflow
}

// corpus is the extended corpus in presentation order: the paper's four
// evaluation workflows of Sect. IV-B, then the three additional Pegasus
// shapes. Paper, Extended, their name lists and Lookup all read it.
var corpus = [...]named{
	{"Montage", PaperMontage},
	{"CSTEM", CSTEM},
	{"MapReduce", PaperMapReduce},
	{"Sequential", PaperSequential},
	{"Epigenomics", func() *dag.Workflow { return Epigenomics(4) }},
	{"Inspiral", func() *dag.Workflow { return Inspiral(2, 3) }},
	{"CyberShake", func() *dag.Workflow { return CyberShake(8) }},
}

// paperCount is the number of the paper's own workflows at the front of
// corpus.
const paperCount = 4

// Lookup returns the constructor of the corpus workflow whose display name
// equals name up to letter case. It builds nothing.
func Lookup(name string) (build func() *dag.Workflow, ok bool) {
	for _, n := range corpus {
		if strings.EqualFold(n.name, name) {
			return n.build, true
		}
	}
	return nil, false
}

// Paper returns the four evaluation workflows of Sect. IV-B keyed by the
// names used throughout the paper's tables and figures.
func Paper() map[string]*dag.Workflow { return build(corpus[:paperCount]) }

// PaperNames lists the evaluation workflows in the paper's presentation
// order.
func PaperNames() []string { return names(corpus[:paperCount]) }

// build constructs every listed workflow, keyed by display name.
func build(list []named) map[string]*dag.Workflow {
	m := make(map[string]*dag.Workflow, len(list))
	for _, n := range list {
		m[n.name] = n.build()
	}
	return m
}

// names lists the display names in order.
func names(list []named) []string {
	out := make([]string, len(list))
	for i, n := range list {
		out[i] = n.name
	}
	return out
}

func mustFreeze(w *dag.Workflow) {
	if err := w.Freeze(); err != nil {
		panic(fmt.Sprintf("workflows: %s: %v", w.Name, err))
	}
}
