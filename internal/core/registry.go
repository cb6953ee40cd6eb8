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
	if name == "" {
		return nil, fmt.Errorf("core: empty workflow name")
	}
	for dn, wf := range workflows.Extended() {
		if strings.EqualFold(dn, name) {
			return wf, nil
		}
	}
	if strings.EqualFold(name, "Fig1") {
		return workflows.Fig1SubWorkflow(), nil
	}

	base, a, b, err := splitGenerator(strings.ToLower(name))
	if err != nil {
		return nil, err
	}
	return GenerateWorkflow(base, a, b)
}

// GenerateWorkflow builds a parametric generator's workflow: base is a
// generator name of GeneratorSpecs ("montage", "mapreduce", ...) and a, b
// its size parameters in the order the grammar spells them ("mapreduce"
// takes mappers then reducers). Zero sizes select the paper's defaults.
func GenerateWorkflow(base string, a, b int) (*dag.Workflow, error) {
	pick := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	switch strings.ToLower(base) {
	case "montage":
		return workflows.Montage(pick(a, 6)), nil
	case "cstem":
		if a > 0 || b > 0 {
			return nil, fmt.Errorf("core: workflow %q: cstem takes no size parameter", base)
		}
		return workflows.CSTEM(), nil
	case "mapreduce":
		return workflows.MapReduce(pick(a, 8), pick(b, 4)), nil
	case "sequential":
		return workflows.Sequential(pick(a, 10)), nil
	case "layered":
		return workflows.Layered(pick(a, 3), pick(b, 4)), nil
	case "epigenomics":
		return workflows.Epigenomics(pick(a, 4)), nil
	case "inspiral":
		return workflows.Inspiral(pick(a, 2), pick(b, 3)), nil
	case "cybershake":
		return workflows.CyberShake(pick(a, 8)), nil
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
	parts := strings.Split(suffix, "x")
	if len(parts) > 2 {
		return "", 0, 0, fmt.Errorf("core: workflow %q: bad size suffix %q", s, suffix)
	}
	nums := make([]int, len(parts))
	for j, p := range parts {
		n, perr := strconv.Atoi(p)
		if perr != nil || n <= 0 {
			return "", 0, 0, fmt.Errorf("core: workflow %q: bad size suffix %q", s, suffix)
		}
		nums[j] = n
	}
	a = nums[0]
	if len(nums) == 2 {
		b = nums[1]
	}
	return base, a, b, nil
}
