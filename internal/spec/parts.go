package spec

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dax"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/provision"
	"repro/internal/sched"
	"repro/internal/wfio"
	"repro/internal/workload"
)

// Workflow selects one deterministic workflow. Exactly one source is set:
// Name, a registry name or generator spec ("Montage", "montage24",
// "mapreduce16x8"); Inline, a wfio document; File, a wfio JSON or DAX
// path; or Builder, a generator of the registry grammar with its sizes
// spelled out as fields ("mapreduce" takes M mappers and R reducers, the
// others N, then M).
type Workflow struct {
	Name    string
	Inline  *wfio.File
	File    string
	Builder string
	N, M, R int
	// wf returns the workflow. For a Name it builds on first use, so a
	// request answered from a cache never builds its DAG.
	wf func() *dag.Workflow
}

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling. A registry name is only parsed; the other sources
// are built here, because their canonical form and their errors need the
// workflow.
func (w *Workflow) Validate() error {
	if sources(w.Name != "", w.Inline != nil, w.File != "", w.Builder != "") != 1 {
		return errors.New("workflow: set exactly one of a name, an inline document, a file or a builder")
	}
	if w.Name != "" {
		build, err := core.ParseWorkflowName(w.Name)
		if err == nil {
			w.wf = sync.OnceValue(build)
		}
		return err
	}
	var wf *dag.Workflow
	var err error
	switch {
	case w.Inline != nil:
		if wf, err = wfio.FromFile(*w.Inline); err != nil {
			return fmt.Errorf("invalid workflow: %w", err)
		}
		// Re-encode: documents that differ only in formatting, edge order
		// or defaulted task names describe one workflow.
		f := wfio.ToFile(wf)
		w.Inline = &f
	case w.File != "":
		decode := wfio.Decode
		if strings.HasSuffix(w.File, ".xml") || strings.HasSuffix(w.File, ".dax") {
			decode = dax.Decode
		}
		wf, err = readFile(w.File, decode)
	case w.N < 0 || w.M < 0 || w.R < 0:
		err = fmt.Errorf("workflow: negative size in builder %q", w.Builder)
	case strings.EqualFold(w.Builder, "mapreduce"):
		wf, err = core.GenerateWorkflow(w.Builder, w.M, w.R)
	default:
		wf, err = core.GenerateWorkflow(w.Builder, w.N, w.M)
	}
	if err == nil {
		w.wf = func() *dag.Workflow { return wf }
	}
	return err
}

// Value returns the workflow a validated part names, building a registry
// workflow on first use.
func (w *Workflow) Value() *dag.Workflow { return w.wf() }

// Label is the name a report gives the workflow: the registry name as
// spelled, else the document's own name, else "custom".
func (w *Workflow) Label() string {
	if w.Name != "" {
		return w.Name
	}
	return cmp.Or(w.wf().Name, "custom")
}

// WorkflowArg maps a command-line workflow argument onto a Workflow: a
// registry name when the registry knows it, else a file path when isFile
// says so, else a registry name, whose error lists the valid ones.
func WorkflowArg(arg string) Workflow {
	if isFile(arg, core.ParseWorkflowName) {
		return Workflow{File: arg}
	}
	return Workflow{Name: arg}
}

// Template selects one non-deterministic workflow template. Exactly one
// source is set: Name, a registry name ("order", "montage", "montage12");
// Inline, an ndwf JSON document; or File, an ndwf JSON path.
type Template struct {
	Name   string
	Inline json.RawMessage
	File   string
	tpl    ndwf.Template
}

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (t *Template) Validate() error {
	if sources(t.Name != "", len(t.Inline) > 0, t.File != "") != 1 {
		return errors.New("template: set exactly one of a name, an inline document or a file")
	}
	var err error
	switch {
	case t.Name != "":
		t.tpl, err = core.NamedTemplate(t.Name)
	case t.File != "":
		t.tpl, err = readFile(t.File, ndwf.DecodeJSON)
	default:
		if t.tpl, err = ndwf.DecodeJSON(bytes.NewReader(t.Inline)); err == nil {
			// Re-encode: whitespace and field order do not matter.
			var buf bytes.Buffer
			err = ndwf.EncodeJSON(&buf, t.tpl)
			t.Inline = buf.Bytes()
		}
	}
	if err == nil {
		err = t.tpl.Validate()
	}
	if err != nil && t.Name == "" {
		return fmt.Errorf("invalid template: %w", err)
	}
	return err
}

// Value returns the template a validated part names.
func (t *Template) Value() ndwf.Template { return t.tpl }

// Label is the name a report gives the template: its own name, else
// "custom".
func (t *Template) Label() string { return cmp.Or(t.tpl.Name, "custom") }

// TemplateArg maps a command-line template argument onto a Template, like
// WorkflowArg.
func TemplateArg(arg string) Template {
	if isFile(arg, core.NamedTemplate) {
		return Template{File: arg}
	}
	return Template{Name: arg}
}

// Strategy selects one planner: Label, a catalog or hedge label
// ("AllParExceed-m", "GAIN", "SpotFallback"), or an Algorithm ("HEFT" or
// "AllPar") composed with a provisioning Policy (default OneVMperTask)
// and an Instance type (default small) under Table I's pairings. A
// composition the registry has a label for canonicalizes to that label.
type Strategy struct {
	Label                       string
	Algorithm, Policy, Instance string
	alg                         sched.Algorithm
}

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (s *Strategy) Validate() error {
	composed := s.Algorithm != "" || s.Policy != "" || s.Instance != ""
	switch {
	case s.Label != "" && composed:
		return errors.New("set either strategy or algorithm/policy/instance, not both")
	case s.Label != "":
		alg, err := core.StrategyByName(s.Label)
		if err != nil {
			return err
		}
		*s = Strategy{Label: alg.Name(), alg: alg}
		return nil
	case !composed:
		return errors.New("missing strategy: set strategy or algorithm/policy/instance")
	case s.Algorithm == "":
		return errors.New("composed strategy needs an algorithm (HEFT or AllPar)")
	}
	kind, typ := provision.OneVMperTask, cloud.Small
	var err error
	if s.Policy != "" {
		if kind, err = provision.ParseKind(s.Policy); err != nil {
			return err
		}
	}
	if s.Instance != "" {
		if typ, err = cloud.ParseInstanceType(s.Instance); err != nil {
			return err
		}
	}
	allPar := kind == provision.AllParExceed || kind == provision.AllParNotExceed
	var alg sched.Algorithm
	switch {
	// Table I pairing: HEFT goes with OneVMperTask/StartPar*, the AllPar
	// policies with the level-based algorithm. Allowing the mix would also
	// alias another strategy's label.
	case strings.EqualFold(s.Algorithm, "HEFT") && !allPar:
		alg, s.Algorithm = sched.NewHEFT(kind, typ), "HEFT"
	case strings.EqualFold(s.Algorithm, "HEFT"):
		return fmt.Errorf("HEFT pairs with OneVMperTask or StartPar[Not]Exceed, not %q", kind)
	case strings.EqualFold(s.Algorithm, "AllPar") && allPar:
		alg, s.Algorithm = sched.NewAllPar(kind, typ), "AllPar"
	case strings.EqualFold(s.Algorithm, "AllPar"):
		return fmt.Errorf("AllPar requires an AllPar[Not]Exceed policy, got %q", kind)
	default:
		return fmt.Errorf("unknown algorithm %q (valid: HEFT, AllPar)", s.Algorithm)
	}
	// A composition the registry has a label for is that strategy; one
	// it has none for (an xlarge instance) keeps its triple, so that the
	// canonical spelling validates again.
	if _, err := core.StrategyByName(alg.Name()); err == nil {
		*s = Strategy{Label: alg.Name(), alg: alg}
	} else {
		*s = Strategy{Algorithm: s.Algorithm, Policy: kind.String(), Instance: typ.String(), alg: alg}
	}
	return nil
}

// Value returns the algorithm a validated part names.
func (s *Strategy) Value() sched.Algorithm { return s.alg }

// Scenario names a workload scenario ("Pareto", "Best case", "Worst
// case", "Data heavy", or "As is"/"none" to keep the workflow's own
// weights); empty selects Pareto.
type Scenario string

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (s *Scenario) Validate() error {
	sc, err := workload.ParseScenario(cmp.Or(string(*s), workload.Pareto.String()))
	if err == nil {
		*s = Scenario(sc.String())
	}
	return err
}

// Value returns the scenario a validated part names.
func (s Scenario) Value() workload.Scenario {
	sc, _ := workload.ParseScenario(string(s))
	return sc
}

// Region names the EC2 region pricing the VMs; empty selects the paper's
// US East Virginia.
type Region string

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (r *Region) Validate() error {
	region, err := cloud.ParseRegion(cmp.Or(string(*r), cloud.USEastVirginia.String()))
	if err == nil {
		*r = Region(region.String())
	}
	return err
}

// Value returns the region a validated part names.
func (r Region) Value() cloud.Region {
	region, _ := cloud.ParseRegion(string(r))
	return region
}

// Market selects the lease-pricing model. Preset names a market preset,
// and the other fields override the preset's values. The zero Market is
// preset "none", the paper's flat on-demand per-BTU economics, which takes
// no override; overrides without a preset start from market.Default().
// The JSON names are the expconf "market" block's.
type Market struct {
	Preset       string  `json:"preset,omitempty"`
	Market       string  `json:"market,omitempty"`        // ondemand, spot
	Granularity  string  `json:"granularity,omitempty"`   // btu, min, sec
	SpotDiscount float64 `json:"spot_discount,omitempty"` // spot base price as a fraction of on-demand
	Fallback     bool    `json:"fallback,omitempty"`      // replace preempted spot leases on-demand
	WarmPool     int     `json:"warm_pool,omitempty"`     // leases kept booted from t=0
	Seed         uint64  `json:"seed,omitempty"`          // cold-start draw stream
	// TraceFile loads a spot price trace ("t multiplier" lines, see
	// market.ParseTrace).
	TraceFile string `json:"trace_file,omitempty"`
	Cold      *Cold  `json:"cold,omitempty"`
	model     *market.Model
}

// Cold overrides the cold-start distribution of a Market.
type Cold struct {
	Dist string  `json:"dist,omitempty"` // fixed, uniform, exp ("" = none)
	Mean float64 `json:"mean,omitempty"`
	Min  float64 `json:"min,omitempty"`
	Max  float64 `json:"max,omitempty"`
}

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (m *Market) Validate() error {
	m.Preset, m.model = strings.ToLower(m.Preset), nil
	if *m == (Market{}) {
		m.Preset = "none"
	}
	base := market.Default()
	if m.Preset != "" {
		var err error
		if base, err = market.Preset(m.Preset); err != nil {
			return err
		}
	}
	if base == nil {
		if *m != (Market{Preset: m.Preset}) {
			return fmt.Errorf("market: preset %q takes no overrides", m.Preset)
		}
		return nil
	}
	mm := *base
	var err error
	if m.Market != "" {
		if mm.Market, err = market.ParseKind(m.Market); err != nil {
			return err
		}
	}
	if m.Granularity != "" {
		if mm.Gran, err = market.ParseGranularity(m.Granularity); err != nil {
			return err
		}
	}
	mm.SpotDiscount = cmp.Or(m.SpotDiscount, mm.SpotDiscount)
	mm.Fallback = mm.Fallback || m.Fallback
	mm.WarmPool = cmp.Or(m.WarmPool, mm.WarmPool)
	mm.Seed = cmp.Or(m.Seed, mm.Seed)
	if m.Cold != nil {
		mm.Cold = market.ColdStart(*m.Cold)
	}
	if m.TraceFile != "" {
		if mm.Trace, err = readFile(m.TraceFile, market.ParseTrace); err != nil {
			return err
		}
	}
	if err := mm.Validate(); err != nil {
		return err
	}
	m.Seed, m.model = mm.Seed, &mm
	return nil
}

// Value returns the model a validated part names; nil is the paper's
// economics.
func (m *Market) Value() *market.Model { return m.model }

// Faults selects the fault model of simulated replays. Preset names a
// fault scenario, and the other fields override its values; a zero field
// keeps the preset's. A block that injects nothing resolves to no faults.
// The JSON names are the expconf "fault" block's.
type Faults struct {
	Preset       string  `json:"preset,omitempty"`
	CrashRate    float64 `json:"crash_rate,omitempty"`     // VM crashes per VM-hour
	PreemptRate  float64 `json:"preempt_rate,omitempty"`   // spot reclamations per spot-VM-hour
	TaskFailProb float64 `json:"task_fail_prob,omitempty"` // per-attempt failure probability
	Recovery     string  `json:"recovery,omitempty"`       // retry, resubmit, fail
	MaxRetries   int     `json:"max_retries,omitempty"`
	BackoffS     float64 `json:"backoff_s,omitempty"`
	RebootS      float64 `json:"reboot_s,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	cfg          *fault.Config
}

// Validate parses, defaults and checks the part, rewriting it into its
// canonical spelling.
func (f *Faults) Validate() error {
	var cfg fault.Config
	var err error
	if f.Preset != "" {
		if cfg, err = fault.Preset(f.Preset); err != nil {
			return err
		}
	}
	if f.Recovery != "" {
		if cfg.Recovery, err = fault.ParseRecovery(f.Recovery); err != nil {
			return err
		}
	}
	cfg.CrashRate = cmp.Or(f.CrashRate, cfg.CrashRate)
	cfg.SpotPreemptRate = cmp.Or(f.PreemptRate, cfg.SpotPreemptRate)
	cfg.TaskFailProb = cmp.Or(f.TaskFailProb, cfg.TaskFailProb)
	cfg.MaxRetries = cmp.Or(f.MaxRetries, cfg.MaxRetries)
	cfg.BackoffS = cmp.Or(f.BackoffS, cfg.BackoffS)
	cfg.RebootS = cmp.Or(f.RebootS, cfg.RebootS)
	cfg.Seed = f.Seed
	if err := cfg.Fill().Validate(); err != nil {
		return err
	}
	if !cfg.Active() {
		*f = Faults{}
		return nil
	}
	// The config stays unfilled: Fill is not idempotent (a negative
	// MaxRetries fills to 0, which fills to the default), and the
	// injector fills it once.
	f.Preset, f.Recovery, f.cfg = strings.ToLower(f.Preset), cfg.Recovery.String(), &cfg
	return nil
}

// Value returns the fault model a validated part names; nil is a perfect
// cloud.
func (f *Faults) Value() *fault.Config { return f.cfg }

// sources counts the set alternatives of a one-of choice.
func sources(set ...bool) int {
	n := 0
	for _, s := range set {
		if s {
			n++
		}
	}
	return n
}

// readFile opens path and decodes it.
func readFile[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	v, err := decode(f)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// isFile reports whether a command-line argument the registry rejects is
// a file: one that exists, or one spelled as a path, with a path
// separator or a .json, .xml or .dax extension, whose open error then
// says what is wrong better than an unknown name would.
func isFile[T any](arg string, named func(string) (T, error)) bool {
	if _, err := named(arg); err == nil {
		return false
	}
	if strings.ContainsAny(arg, "/"+string(filepath.Separator)) {
		return true
	}
	switch strings.ToLower(filepath.Ext(arg)) {
	case ".json", ".xml", ".dax":
		return true
	}
	_, err := os.Stat(arg)
	return err == nil
}
