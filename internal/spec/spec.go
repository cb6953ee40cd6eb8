// Package spec is the one typed description of a planning problem that
// every front end shares: the wfservd endpoints, the expconf experiment
// files and the wfsim, sweep, wfload and wfstats flags all map their
// inputs onto these parts — Workflow, Template, Strategy, Scenario,
// Region, Market and Faults — each with exactly one function that parses,
// defaults and validates it. The parts compose into the Schedule,
// Compare, SLA and Online specs, each with one Validate and one Key.
//
// Validate rewrites a spec into its canonical spelling, so that Key, a
// SHA-256 over the encoding/json document of the validated spec, covers
// every exported field without anyone listing them. Validation folds what
// cannot change an answer: letter case in strategy, market, scenario,
// scaler, dispatch and region names; defaults, spelled out (confidence
// 0.95, samples 200, weight 1, max_vms 32, region, scenario, scaler,
// dispatch and instance type); fault blocks that inject nothing; and the
// formatting of inline documents. It keeps workflow, template and task
// names verbatim, because reports echo them. Equal keys therefore mean
// byte-identical answers.
package spec

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/online"
	"repro/internal/sched"
	"repro/internal/sla"
)

// Key is the canonical address of a validated spec.
type Key [sha256.Size]byte

// key hashes the kind tag and the JSON document of a validated spec.
func key(kind string, v any) Key {
	b, err := json.Marshal(v)
	if err != nil {
		// Only a NaN or an infinity fails to encode, and no JSON request
		// can carry either.
		panic("spec: unencodable spec: " + err.Error())
	}
	return sha256.Sum256(append([]byte(kind), b...))
}

// Schedule is one workflow planned by one strategy, as /v1/schedule and
// wfsim pose it.
type Schedule struct {
	Workflow Workflow
	Scenario Scenario
	Strategy Strategy
	Region   Region
	Seed     uint64
	// Simulate replays the plan through the discrete-event simulator;
	// BootS and Faults act only on that replay, so they require it.
	Simulate bool
	BootS    float64
	Faults   Faults
	Market   Market
	// Debug runs the differential plan↔sim oracle on the schedule.
	Debug bool
}

// Validate resolves and canonicalizes every part of the spec.
func (s *Schedule) Validate() error {
	if err := all(s.Workflow.Validate, s.Scenario.Validate, s.Strategy.Validate, s.Region.Validate); err != nil {
		return err
	}
	switch {
	case s.BootS < 0:
		return fmt.Errorf("negative boot_s %v", s.BootS)
	case s.BootS > 0 && !s.Simulate:
		return errors.New("boot_s requires simulate: the planner ignores boot time")
	case s.Faults != (Faults{}) && !s.Simulate:
		return errors.New("fault options require simulate: the planner assumes a perfect cloud")
	}
	return all(s.Faults.Validate, s.Market.Validate)
}

// Key addresses the validated spec.
func (s *Schedule) Key() Key { return key("schedule", s) }

// Compare is one workflow planned by the whole 19-strategy catalog, as
// /v1/compare poses it.
type Compare struct {
	Workflow Workflow
	Scenario Scenario
	Region   Region
	Seed     uint64
}

// Validate resolves and canonicalizes every part of the spec.
func (c *Compare) Validate() error {
	return all(c.Workflow.Validate, c.Scenario.Validate, c.Region.Validate)
}

// Key addresses the validated spec.
func (c *Compare) Key() Key { return key("compare", c) }

// SLA is a deadline question over a template: the cheapest strategy ×
// market candidate whose sampled makespan meets DeadlineS with
// probability at least Confidence (default 0.95), from Samples (default
// 200) instances per candidate.
type SLA struct {
	Template   Template
	DeadlineS  float64
	Confidence float64
	Samples    int
	Seed       uint64
	Region     Region
	// Strategies restricts the portfolio; empty sweeps the full registry.
	// Markets lists the market presets swept; empty means "none". Both
	// keep the first spelling of each name, case folded.
	Strategies []string
	Markets    []string
	// Faults replays every sampled schedule; an incomplete run misses.
	Faults Faults
	// Debug cross-checks every fault-free sampled schedule against the
	// simulator.
	Debug bool
}

// Validate resolves and canonicalizes every part of the spec.
func (s *SLA) Validate() error {
	if err := s.Template.Validate(); err != nil {
		return err
	}
	s.Confidence, s.Samples = cmp.Or(s.Confidence, 0.95), cmp.Or(s.Samples, 200)
	switch {
	case s.DeadlineS <= 0:
		return fmt.Errorf("deadline_s must be positive, got %v", s.DeadlineS)
	case s.Confidence <= 0 || s.Confidence >= 1:
		return fmt.Errorf("confidence %v outside (0, 1)", s.Confidence)
	case s.Samples < 0:
		return fmt.Errorf("samples %d must be positive", s.Samples)
	}
	var err error
	if s.Strategies, err = dedupe(s.Strategies, func(name string) (string, error) {
		alg, err := core.StrategyByName(name)
		if err != nil {
			return "", err
		}
		return alg.Name(), nil
	}); err != nil {
		return err
	}
	if len(s.Markets) == 0 {
		s.Markets = []string{"none"}
	}
	if s.Markets, err = dedupe(s.Markets, func(name string) (string, error) {
		_, err := market.Preset(name)
		return strings.ToLower(name), err
	}); err != nil {
		return err
	}
	return all(s.Region.Validate, s.Faults.Validate)
}

// Key addresses the validated spec.
func (s *SLA) Key() Key { return key("sla", s) }

// Search returns the search a validated spec describes; Workers is left
// to the caller (the answer is identical at any worker count).
func (s *SLA) Search() sla.SearchConfig {
	cfg := sla.SearchConfig{
		Deadline: s.DeadlineS,
		Target:   s.Confidence,
		Config:   sla.Config{Samples: s.Samples, Seed: s.Seed, Faults: s.Faults.Value(), Paranoid: s.Debug},
		Markets:  s.Markets,
		Opts:     sched.Options{Platform: cloud.NewPlatform(), Region: s.Region.Value()},
	}
	if s.Strategies != nil {
		cfg.Candidates = frontier.Portfolio(s.Strategies, s.Markets)
	}
	return cfg
}

// MixEntry is one weighted template of an online stream; Weight 0
// selects 1.
type MixEntry struct {
	Template Template
	Weight   float64
}

// Online is a continuous-traffic autoscaling run: an open-loop stream of
// Instances workflow instances, one every InterarrivalS seconds on
// average, against a pool of [MinVMs, MaxVMs] (default 32) Instance VMs
// (default small) under a Scaler (default reactive) and a Dispatch order
// (default fifo). DeadlineS is the per-instance response SLA (0 = none).
type Online struct {
	// Template streams one template; Mix draws each instance from
	// weighted templates instead. Exactly one is set; a template is a mix
	// of one.
	Template      Template
	Mix           []MixEntry
	InterarrivalS float64
	Instances     int
	Instance      string
	Region        Region
	MinVMs        int
	MaxVMs        int
	Scaler        string
	Dispatch      string
	DeadlineS     float64
	Market        Market
	Faults        Faults
	Seed          uint64
	cfg           online.Config
}

// Validate resolves and canonicalizes every part of the spec.
func (o *Online) Validate() error {
	switch single := o.Template.Name != "" || len(o.Template.Inline) > 0 || o.Template.File != ""; {
	case single && len(o.Mix) > 0:
		return errors.New("set either a template or a mix, not both")
	case single:
		o.Template, o.Mix = Template{}, []MixEntry{{Template: o.Template}}
	case len(o.Mix) == 0:
		return errors.New("missing template: set a template or a mix")
	}
	cfg := online.Config{MeanInterarrival: o.InterarrivalS, Instances: o.Instances,
		Deadline: o.DeadlineS, Seed: o.Seed}
	for i := range o.Mix {
		e := &o.Mix[i]
		if err := e.Template.Validate(); err != nil {
			return fmt.Errorf("mix entry %d: %w", i, err)
		}
		if e.Weight = cmp.Or(e.Weight, 1); e.Weight < 0 {
			return fmt.Errorf("mix entry %d: negative weight %v", i, e.Weight)
		}
		cfg.Mix = append(cfg.Mix, online.MixEntry{Template: e.Template.Value(), Weight: e.Weight})
	}
	o.MaxVMs = cmp.Or(o.MaxVMs, 32)
	switch {
	case o.InterarrivalS <= 0:
		return fmt.Errorf("interarrival_s must be positive, got %v", o.InterarrivalS)
	case o.Instances <= 0:
		return fmt.Errorf("instances %d must be positive", o.Instances)
	case o.DeadlineS < 0:
		return fmt.Errorf("deadline_s must be non-negative, got %v", o.DeadlineS)
	case o.MinVMs < 0 || o.MaxVMs < 0 || o.MinVMs > o.MaxVMs:
		return fmt.Errorf("pool bounds [%d, %d] inverted or negative", o.MinVMs, o.MaxVMs)
	}
	var err error
	if cfg.Type, err = cloud.ParseInstanceType(cmp.Or(o.Instance, cloud.Small.String())); err != nil {
		return err
	}
	if cfg.Scaler, err = online.ParseScaler(cmp.Or(o.Scaler, online.Reactive{}.Name())); err != nil {
		return err
	}
	if cfg.Dispatch, err = online.ParseDispatch(o.Dispatch); err != nil {
		return err
	}
	if err := all(o.Region.Validate, o.Market.Validate, o.Faults.Validate); err != nil {
		return err
	}
	o.Instance, o.Scaler, o.Dispatch = cfg.Type.String(), cfg.Scaler.Name(), cfg.Dispatch.String()
	cfg.MinVMs, cfg.MaxVMs = o.MinVMs, o.MaxVMs
	cfg.Region, cfg.Market, cfg.Faults = o.Region.Value(), o.Market.Value(), o.Faults.Value()
	o.cfg = cfg
	return nil
}

// Key addresses the validated spec.
func (o *Online) Key() Key { return key("online", o) }

// Config returns the run a validated spec describes.
func (o *Online) Config() online.Config { return o.cfg }

// all runs the resolvers in order and returns the first error.
func all(resolvers ...func() error) error {
	for _, resolve := range resolvers {
		if err := resolve(); err != nil {
			return err
		}
	}
	return nil
}

// dedupe canonicalizes each name and keeps its first occurrence.
func dedupe(names []string, canonical func(string) (string, error)) ([]string, error) {
	var out []string
	for _, name := range names {
		c, err := canonical(name)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out, nil
}
