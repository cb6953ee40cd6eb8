// Package expconf loads experiment configurations from JSON, so custom
// sweeps — different workflow corpora, scenario subsets, regions and
// strategy subsets — can be described as data instead of code:
//
//	{
//	  "seed": 7,
//	  "region": "eu-dublin",
//	  "scenarios": ["Pareto", "Worst case"],
//	  "strategies": ["AllParExceed-m", "GAIN"],
//	  "workflows": [
//	    {"name": "Montage"},
//	    {"name": "mr-big", "builder": "mapreduce", "m": 16, "r": 8},
//	    {"name": "mine", "file": "my-workflow.json"}
//	  ],
//	  "sla": {"template": "montage", "deadline_s": 40000, "confidence": 0.95}
//	}
//
// Omitted fields fall back to the paper's defaults. Each block maps onto
// the internal/spec parts every front end shares; what stays here is the
// file's own layer: relative paths resolve against the file, and the sla
// and online blocks inherit the file-level seed, region, platform, fault
// model and market model.
package expconf

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/sla"
	"repro/internal/spec"
)

// File is the JSON document shape.
type File struct {
	Seed       uint64         `json:"seed"`
	Region     string         `json:"region,omitempty"`
	Scenarios  []string       `json:"scenarios,omitempty"`
	Strategies []string       `json:"strategies,omitempty"`
	Workflows  []WorkflowSpec `json:"workflows,omitempty"`
	Paranoid   bool           `json:"paranoid,omitempty"`
	// LatencyS overrides the platform's inter-VM network latency in
	// seconds (0 keeps the default) — the knob for network-sensitivity
	// experiments.
	LatencyS float64 `json:"latency_s,omitempty"`
	// Workers bounds the sweep's concurrency (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Fault replays every cell under a fault model (nil = perfect cloud):
	// a preset from internal/fault ("calm", "flaky", "hostile", ...) whose
	// values explicit fields override.
	Fault *spec.Faults `json:"fault,omitempty"`
	// Market prices every lease under a market model (nil or {} = the
	// paper's flat on-demand per-BTU economics): a preset from
	// internal/market whose values explicit fields override. Overrides
	// without a preset start from market.Default(); preset "none" takes
	// no override.
	Market *spec.Market `json:"market,omitempty"`
	// SLA adds a deadline-constrained portfolio search over a
	// non-deterministic template, run by the driver after the grid sweep.
	SLA *SLASpec `json:"sla,omitempty"`
	// Online adds a continuous-traffic autoscaling run (an open-loop
	// arrival stream against an elastic pool), run by the driver after
	// the grid sweep.
	Online *OnlineSpec `json:"online,omitempty"`
}

// SLASpec is the "sla" block: find the cheapest strategy × market-preset
// candidate whose sampled makespan distribution meets the deadline with
// the required confidence. Exactly one of Template (a registry name like
// "montage", "montage12", "order") or TemplateFile (ndwf JSON) selects the
// template. The file-level seed, region, fault model, paranoia and worker
// budget carry over; Strategies defaults to the full registry and Markets
// to the paper's economics only ("none").
type SLASpec struct {
	Template     string   `json:"template,omitempty"`
	TemplateFile string   `json:"template_file,omitempty"`
	DeadlineS    float64  `json:"deadline_s"`
	Confidence   float64  `json:"confidence,omitempty"` // default 0.95
	Samples      int      `json:"samples,omitempty"`    // default 200
	Seed         uint64   `json:"seed,omitempty"`       // default: file seed
	Strategies   []string `json:"strategies,omitempty"`
	Markets      []string `json:"markets,omitempty"`
}

// OnlineSpec is the "online" block: an open-loop stream of workflow
// instances against an auto-scaled VM pool. Exactly one of Template /
// TemplateFile (a single-template stream) or Mix (weighted templates)
// selects the arriving workflows. The file-level seed, region, platform,
// fault model and market model carry over.
type OnlineSpec struct {
	Template      string    `json:"template,omitempty"`
	TemplateFile  string    `json:"template_file,omitempty"`
	Mix           []MixSpec `json:"mix,omitempty"`
	InterarrivalS float64   `json:"interarrival_s"`
	Instances     int       `json:"instances"`
	InstanceType  string    `json:"instance_type,omitempty"` // default small
	MinVMs        int       `json:"min_vms,omitempty"`
	MaxVMs        int       `json:"max_vms,omitempty"` // default 32
	Scaler        string    `json:"scaler,omitempty"`  // reactive, deadline, predictive
	Dispatch      string    `json:"dispatch,omitempty"`
	DeadlineS     float64   `json:"deadline_s,omitempty"`
	Seed          uint64    `json:"seed,omitempty"` // default: file seed
}

// MixSpec is one weighted component of an OnlineSpec mix.
type MixSpec struct {
	Template     string  `json:"template,omitempty"`
	TemplateFile string  `json:"template_file,omitempty"`
	Weight       float64 `json:"weight,omitempty"` // default 1
}

// WorkflowSpec names one workflow of the corpus. Exactly one source must
// be given: a built-in display name or generator spec (Name alone), a
// parametric builder, or a file (JSON or DAX, by extension).
type WorkflowSpec struct {
	Name    string `json:"name"`
	Builder string `json:"builder,omitempty"`
	N       int    `json:"n,omitempty"`
	M       int    `json:"m,omitempty"`
	R       int    `json:"r,omitempty"`
	File    string `json:"file,omitempty"`
}

// Load reads a JSON experiment description and resolves it into a
// core.Config. Relative workflow file paths are resolved against baseDir.
func Load(r io.Reader, baseDir string) (core.Config, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return core.Config{}, fmt.Errorf("expconf: %w", err)
	}
	return Resolve(f, baseDir)
}

// LoadFile reads an experiment description from a file; relative workflow
// paths resolve against the file's directory.
func LoadFile(path string) (core.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Config{}, fmt.Errorf("expconf: %w", err)
	}
	defer f.Close()
	return Load(f, filepath.Dir(path))
}

// Resolve turns a parsed document into a runnable core.Config.
func Resolve(f File, baseDir string) (core.Config, error) {
	cfg, err := resolve(f, baseDir)
	if err != nil {
		return core.Config{}, fmt.Errorf("expconf: %w", err)
	}
	return cfg, nil
}

func resolve(f File, baseDir string) (core.Config, error) {
	path := func(p string) string {
		if p == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(baseDir, p)
	}
	cfg := core.Config{Seed: f.Seed, Paranoid: f.Paranoid, Workers: f.Workers}
	if f.Fault != nil {
		faults := *f.Fault
		if err := faults.Validate(); err != nil {
			return cfg, err
		}
		cfg.Faults = faults.Value()
	}
	if f.Market != nil {
		mkt := *f.Market
		mkt.TraceFile = path(mkt.TraceFile)
		if err := mkt.Validate(); err != nil {
			return cfg, err
		}
		cfg.Market = mkt.Value()
	}
	if f.LatencyS < 0 {
		return cfg, fmt.Errorf("negative latency %v", f.LatencyS)
	}
	if f.LatencyS > 0 {
		cfg.Platform = cloud.NewPlatform()
		cfg.Platform.Latency = f.LatencyS
	}
	region := spec.Region(f.Region)
	if err := region.Validate(); err != nil {
		return cfg, err
	}
	cfg.Region = region.Value()
	for _, name := range f.Scenarios {
		sc := spec.Scenario(name)
		if err := sc.Validate(); err != nil {
			return cfg, err
		}
		cfg.Scenarios = append(cfg.Scenarios, sc.Value())
	}
	for _, name := range f.Strategies {
		st := spec.Strategy{Label: name}
		if err := st.Validate(); err != nil {
			return cfg, err
		}
		cfg.Strategies = append(cfg.Strategies, st.Value())
	}
	for _, w := range f.Workflows {
		if w.Name == "" {
			return cfg, fmt.Errorf("workflow spec without name")
		}
		if _, dup := cfg.Workflows[w.Name]; dup {
			return cfg, fmt.Errorf("duplicate workflow %q", w.Name)
		}
		ws := spec.Workflow{File: path(w.File), Builder: w.Builder, N: w.N, M: w.M, R: w.R}
		if w.File == "" && w.Builder == "" {
			ws.Name = w.Name // display names and generator specs share the registry
		}
		if err := ws.Validate(); err != nil {
			return cfg, fmt.Errorf("workflow %q: %w", w.Name, err)
		}
		if cfg.Workflows == nil {
			cfg.Workflows = map[string]*dag.Workflow{}
		}
		cfg.Workflows[w.Name] = ws.Value()
		cfg.WorkflowOrder = append(cfg.WorkflowOrder, w.Name)
	}
	if b := f.SLA; b != nil {
		sp := spec.SLA{
			Template:  spec.Template{Name: b.Template, File: path(b.TemplateFile)},
			DeadlineS: b.DeadlineS, Confidence: b.Confidence, Samples: b.Samples,
			Seed: cmp.Or(b.Seed, f.Seed), Region: region,
			Strategies: b.Strategies, Markets: b.Markets, Debug: f.Paranoid,
		}
		if err := sp.Validate(); err != nil {
			return cfg, fmt.Errorf("sla block: %w", err)
		}
		search := sp.Search()
		search.Workers, search.Faults = f.Workers, cfg.Faults
		search.Opts.Platform = cmp.Or(cfg.Platform, search.Opts.Platform)
		cfg.SLA = &sla.Job{Template: sp.Template.Value(), Config: search}
	}
	if b := f.Online; b != nil {
		sp := spec.Online{
			Template:      spec.Template{Name: b.Template, File: path(b.TemplateFile)},
			InterarrivalS: b.InterarrivalS, Instances: b.Instances, Instance: b.InstanceType,
			Region: region, MinVMs: b.MinVMs, MaxVMs: b.MaxVMs, Scaler: b.Scaler,
			Dispatch: b.Dispatch, DeadlineS: b.DeadlineS, Seed: cmp.Or(b.Seed, f.Seed),
		}
		for _, m := range b.Mix {
			sp.Mix = append(sp.Mix, spec.MixEntry{
				Template: spec.Template{Name: m.Template, File: path(m.TemplateFile)}, Weight: m.Weight})
		}
		if err := sp.Validate(); err != nil {
			return cfg, fmt.Errorf("online block: %w", err)
		}
		ocfg := sp.Config()
		ocfg.Market, ocfg.Faults = cfg.Market, cfg.Faults
		cfg.Online = &ocfg
	}
	return cfg, nil
}
