// The name registry: one source of truth mapping user-supplied names to
// catalog strategies and built-in workflows, shared by every front end
// (cmd/wfsim, cmd/sweep via internal/expconf, cmd/wfload, cmd/wfstats,
// cmd/ndflow, and the internal/service daemon, most of them through
// internal/spec), so that a strategy or workflow name accepted anywhere is
// accepted everywhere.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dag"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/workflows"
)

var (
	strategyOnce  sync.Once
	strategyNames []string
	strategyByLC  map[string]sched.Algorithm // keyed by lowercased label
)

func strategyIndex() {
	strategyOnce.Do(func() {
		// The 19-strategy catalog in figure order, then the hedging
		// provisioners (SpotFallback, WarmPool4) — the market-aware
		// wrappers every front end should accept by name.
		all := append(sched.Catalog(), sched.Hedges()...)
		strategyNames = make([]string, len(all))
		strategyByLC = make(map[string]sched.Algorithm, len(all))
		for i, a := range all {
			strategyNames[i] = a.Name()
			strategyByLC[strings.ToLower(a.Name())] = a
		}
	})
}

// StrategyNames returns the strategy labels every front end accepts: the
// catalog in figure order followed by the hedging provisioners. The
// returned slice is shared and must not be modified.
func StrategyNames() []string {
	strategyIndex()
	return strategyNames
}

// StrategyByName resolves a catalog strategy by its figure label. Lookup
// is case-insensitive, so "allparexceed-m" and "AllParExceed-m" name the
// same strategy; the error lists the valid labels. The lookup map is built
// once; catalog algorithms are stateless, so sharing them is safe.
func StrategyByName(name string) (sched.Algorithm, error) {
	strategyIndex()
	if a, ok := strategyByLC[strings.ToLower(name)]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("core: unknown strategy %q (valid: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// WorkflowNames returns the built-in workflow display names in
// presentation order (the extended corpus plus the Fig. 1 toy DAG).
func WorkflowNames() []string {
	return append(workflows.ExtendedNames(), "Fig1")
}

// GeneratorSpecs documents the parametric generator grammar NamedWorkflow
// accepts beyond the display names: a lowercase generator name with an
// optional numeric suffix, e.g. "montage24" or "mapreduce16x8".
func GeneratorSpecs() []string {
	return []string{
		"montage[n]", "cstem", "mapreduce[mxr]", "sequential[n]",
		"layered[dxw]", "epigenomics[n]", "inspiral[gxw]", "cybershake[n]",
	}
}

// NamedWorkflow resolves a built-in workflow by name. Two forms are
// accepted, both case-insensitive:
//
//   - a display name: "Montage", "CSTEM", "MapReduce", "Sequential",
//     "Epigenomics", "Inspiral", "CyberShake", "Fig1" — the paper's
//     parameterization of each shape;
//   - a generator spec: a generator name with an optional size suffix,
//     "montage24" (Montage with 24-tile width), "sequential20",
//     "mapreduce16x8" (16 mappers, 8 reducers), "layered3x4",
//     "epigenomics6", "inspiral2x5", "cybershake12". Without a suffix the
//     generator uses the paper's defaults.
//
// The returned workflow is structural: task weights still carry the
// generator's nominal work values until a workload scenario re-weights
// them.
func NamedWorkflow(name string) (*dag.Workflow, error) {
	build, err := ParseWorkflowName(name)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// ParseWorkflowName checks a workflow name against the grammar
// NamedWorkflow accepts and returns the constructor of the workflow it
// names, building nothing: a name it accepts builds without error.
func ParseWorkflowName(name string) (func() *dag.Workflow, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty workflow name")
	}
	if build, ok := workflows.Lookup(name); ok {
		return build, nil
	}
	if strings.EqualFold(name, "Fig1") {
		return workflows.Fig1SubWorkflow, nil
	}
	base, a, b, err := splitGenerator(strings.ToLower(name))
	if err != nil {
		return nil, err
	}
	return generator(base, a, b)
}

// GenerateWorkflow builds a parametric generator's workflow: base is a
// generator name of GeneratorSpecs ("montage", "mapreduce", ...) and a, b
// its size parameters in the order the grammar spells them ("mapreduce"
// takes mappers then reducers). Zero sizes select the paper's defaults.
func GenerateWorkflow(base string, a, b int) (*dag.Workflow, error) {
	build, err := generator(base, a, b)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// generator checks a generator name and its sizes, as GenerateWorkflow
// takes them, and returns the workflow's constructor.
func generator(base string, a, b int) (func() *dag.Workflow, error) {
	pick := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	switch strings.ToLower(base) {
	case "montage":
		n := pick(a, 6)
		if n < 2 {
			return nil, fmt.Errorf("core: workflow %q: montage needs at least 2 images, got %d", base, n)
		}
		return func() *dag.Workflow { return workflows.Montage(n) }, nil
	case "cstem":
		if a > 0 || b > 0 {
			return nil, fmt.Errorf("core: workflow %q: cstem takes no size parameter", base)
		}
		return workflows.CSTEM, nil
	case "mapreduce":
		m, r := pick(a, 8), pick(b, 4)
		return func() *dag.Workflow { return workflows.MapReduce(m, r) }, nil
	case "sequential":
		n := pick(a, 10)
		return func() *dag.Workflow { return workflows.Sequential(n) }, nil
	case "layered":
		d, w := pick(a, 3), pick(b, 4)
		return func() *dag.Workflow { return workflows.Layered(d, w) }, nil
	case "epigenomics":
		n := pick(a, 4)
		return func() *dag.Workflow { return workflows.Epigenomics(n) }, nil
	case "inspiral":
		g, w := pick(a, 2), pick(b, 3)
		return func() *dag.Workflow { return workflows.Inspiral(g, w) }, nil
	case "cybershake":
		n := pick(a, 8)
		return func() *dag.Workflow { return workflows.CyberShake(n) }, nil
	}
	valid := append(WorkflowNames(), GeneratorSpecs()...)
	sort.Strings(valid)
	return nil, fmt.Errorf("core: unknown workflow %q (valid: %s)",
		base, strings.Join(valid, ", "))
}

// TemplateNames returns the built-in non-deterministic template names
// NamedTemplate resolves ("montage" also takes a tile-count suffix).
func TemplateNames() []string { return ndwf.TemplateNames() }

// NamedTemplate resolves a built-in non-deterministic workflow template
// by name, the template counterpart of NamedWorkflow: "order",
// "montage", or "montage<n>" (case-insensitive). These feed the SLA
// layer, where a deadline question needs a distribution over instances
// rather than one fixed DAG.
func NamedTemplate(name string) (ndwf.Template, error) {
	if name == "" {
		return ndwf.Template{}, fmt.Errorf("core: empty template name")
	}
	return ndwf.Named(name)
}

// splitGenerator separates "mapreduce16x8" into ("mapreduce", 16, 8).
// Missing parameters come back as 0 (caller substitutes defaults).
func splitGenerator(s string) (base string, a, b int, err error) {
	i := len(s)
	for i > 0 && (s[i-1] >= '0' && s[i-1] <= '9' || s[i-1] == 'x') {
		i--
	}
	base, suffix := s[:i], s[i:]
	if suffix == "" {
		return base, 0, 0, nil
	}
	first, second, two := strings.Cut(suffix, "x")
	a, aerr := strconv.Atoi(first)
	if two {
		b, err = strconv.Atoi(second)
	}
	if aerr != nil || err != nil || a <= 0 || two && b <= 0 {
		return "", 0, 0, fmt.Errorf("core: workflow %q: bad size suffix %q", s, suffix)
	}
	return base, a, b, nil
}
