package workflows

import (
	"fmt"

	"repro/internal/dag"
)

// This file adds the remaining classic Pegasus-archive workflow shapes
// beyond Montage. The paper's future work calls for "custom workflows ...
// with various properties from different workloads"; these three are the
// standard scientific-workflow structures used throughout the literature
// the paper builds on, and they stress the schedulers differently:
// Epigenomics is pipeline-parallel (independent lanes), Inspiral is a
// two-stage fan-out/fan-in over interferometer groups, and CyberShake is
// dominated by a huge second-level fan-out with paired tasks.

// Epigenomics returns the genome-sequencing workflow: lanes independent
// four-stage pipelines (fastqSplit → filter → map → maq), merging into a
// global mapMerge, maqIndex and pileup chain. It panics unless lanes is
// positive.
func Epigenomics(lanes int) *dag.Workflow {
	if lanes <= 0 {
		panic(fmt.Sprintf("workflows: Epigenomics needs positive lanes, got %d", lanes))
	}
	w := dag.New(fmt.Sprintf("epigenomics-%d", 4*lanes+3))
	merge := w.AddTask("mapMerge", defaultWork)
	for i := 0; i < lanes; i++ {
		split := w.AddTask(fmt.Sprintf("fastqSplit%d", i), defaultWork)
		filter := w.AddTask(fmt.Sprintf("filterContams%d", i), defaultWork)
		mapper := w.AddTask(fmt.Sprintf("map%d", i), defaultWork)
		maq := w.AddTask(fmt.Sprintf("maq%d", i), defaultWork)
		w.AddEdge(split, filter, defaultData)
		w.AddEdge(filter, mapper, defaultData)
		w.AddEdge(mapper, maq, defaultData)
		w.AddEdge(maq, merge, defaultData)
	}
	index := w.AddTask("maqIndex", defaultWork)
	w.AddEdge(merge, index, defaultData)
	pileup := w.AddTask("pileup", defaultWork)
	w.AddEdge(index, pileup, defaultData)
	mustFreeze(w)
	return w
}

// Inspiral returns the LIGO gravitational-wave workflow: groups of
// tmpltBank tasks feed per-group inspiral analyses, a thinca coincidence
// stage joins each group pair-wise, and a second inspiral/thinca round
// follows. Each group holds width tasks. It panics unless both dimensions
// are positive.
func Inspiral(groups, width int) *dag.Workflow {
	if groups <= 0 || width <= 0 {
		panic(fmt.Sprintf("workflows: Inspiral(%d, %d)", groups, width))
	}
	w := dag.New(fmt.Sprintf("inspiral-%d", groups*(3*width+2)))
	for g := 0; g < groups; g++ {
		thinca1 := w.AddTask(fmt.Sprintf("thinca1-%d", g), defaultWork)
		thinca2 := w.AddTask(fmt.Sprintf("thinca2-%d", g), defaultWork)
		for i := 0; i < width; i++ {
			bank := w.AddTask(fmt.Sprintf("tmpltBank%d-%d", g, i), defaultWork)
			insp := w.AddTask(fmt.Sprintf("inspiral1-%d-%d", g, i), defaultWork)
			w.AddEdge(bank, insp, defaultData)
			w.AddEdge(insp, thinca1, defaultData)
			insp2 := w.AddTask(fmt.Sprintf("inspiral2-%d-%d", g, i), defaultWork)
			w.AddEdge(thinca1, insp2, defaultData)
			w.AddEdge(insp2, thinca2, defaultData)
		}
	}
	mustFreeze(w)
	return w
}

// CyberShake returns the seismic-hazard workflow: two ExtractSGT tasks
// feed sites pairs of seismogram-synthesis and peak-value tasks, which all
// merge into a ZipSeis and ZipPSA pair. It panics unless sites is
// positive.
func CyberShake(sites int) *dag.Workflow {
	if sites <= 0 {
		panic(fmt.Sprintf("workflows: CyberShake needs positive sites, got %d", sites))
	}
	w := dag.New(fmt.Sprintf("cybershake-%d", 2*sites+4))
	sgtX := w.AddTask("extractSGT-x", defaultWork)
	sgtY := w.AddTask("extractSGT-y", defaultWork)
	zipSeis := w.AddTask("zipSeis", defaultWork)
	zipPSA := w.AddTask("zipPSA", defaultWork)
	for i := 0; i < sites; i++ {
		seis := w.AddTask(fmt.Sprintf("seismogram%d", i), defaultWork)
		w.AddEdge(sgtX, seis, defaultData)
		w.AddEdge(sgtY, seis, defaultData)
		peak := w.AddTask(fmt.Sprintf("peakVal%d", i), defaultWork)
		w.AddEdge(seis, peak, defaultData)
		w.AddEdge(seis, zipSeis, defaultData)
		w.AddEdge(peak, zipPSA, defaultData)
	}
	mustFreeze(w)
	return w
}

// Extended returns the paper's four workflows plus the three additional
// Pegasus shapes, keyed by display name — the wider corpus for the
// boundary-exploration experiments.
func Extended() map[string]*dag.Workflow { return build(corpus[:]) }

// ExtendedNames lists the extended corpus in presentation order.
func ExtendedNames() []string { return names(corpus[:]) }
