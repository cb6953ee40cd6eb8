package market

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/stats"
)

// ColdStart is the distribution a fresh lease's provisioning delay is
// drawn from. The zero value is "no cold start" (the paper's pre-booted
// setting). Draws are hash-derived per VM identity, so they are
// order-independent and replayable like every other stochastic input.
type ColdStart struct {
	// Dist selects the distribution: "" or "fixed" (always Mean),
	// "uniform" (over [Min, Max]) or "exp" (exponential with mean Mean).
	Dist string
	// Mean is the fixed delay or the exponential mean, in seconds.
	Mean float64
	// Min and Max bound the uniform distribution, in seconds.
	Min, Max float64
}

// Validate rejects impossible parameters.
func (c ColdStart) Validate() error {
	switch c.Dist {
	case "", "fixed", "exp":
		if c.Mean < 0 {
			return fmt.Errorf("market: negative cold-start mean %v", c.Mean)
		}
	case "uniform":
		if c.Min < 0 || c.Max < c.Min {
			return fmt.Errorf("market: bad cold-start bounds [%v, %v]", c.Min, c.Max)
		}
	default:
		return fmt.Errorf("market: unknown cold-start distribution %q (valid: fixed, uniform, exp)", c.Dist)
	}
	return nil
}

// Draw returns the cold-start delay of VM id under the given seed. Same
// (seed, id), same delay — independent of how many draws happened before.
func (c ColdStart) Draw(seed uint64, id int) float64 {
	switch c.Dist {
	case "uniform":
		u := stats.NewRNG(mix64(seed, 0xC01d, uint64(id))).Float64()
		return c.Min + u*(c.Max-c.Min)
	case "exp":
		if c.Mean <= 0 {
			return 0
		}
		u := stats.NewRNG(mix64(seed, 0xC01d, uint64(id))).Float64()
		return -math.Log(1-u) * c.Mean
	}
	if c.Mean < 0 {
		return 0
	}
	return c.Mean
}

// String summarizes the distribution.
func (c ColdStart) String() string {
	switch c.Dist {
	case "uniform":
		return fmt.Sprintf("uniform[%g,%g]s", c.Min, c.Max)
	case "exp":
		return fmt.Sprintf("exp(%gs)", c.Mean)
	}
	return fmt.Sprintf("fixed(%gs)", c.Mean)
}

// Model is the experiment-wide market configuration: the terms every
// fresh lease of a schedule is bought under. A nil *Model is the paper's
// economics (see the package comment); plan.Builder.SetMarket threads a
// model through schedule construction and sched.Options.Market through
// every algorithm.
type Model struct {
	// Market is the purchasing market of fresh leases.
	Market Kind
	// Gran is the billing granularity.
	Gran Granularity
	// SpotDiscount is the spot base price as a fraction of on-demand;
	// zero selects DefaultSpotDiscount.
	SpotDiscount float64
	// Trace is the spot price multiplier trace; nil is flat.
	Trace *Trace
	// Cold is the cold-start delay distribution.
	Cold ColdStart
	// Fallback replaces preempted spot leases with on-demand capacity
	// (the SpotFallback hedge).
	Fallback bool
	// WarmPool keeps the first WarmPool leases of a schedule warm: opened
	// and billed from absolute time zero so their cold start is absorbed
	// before work arrives (the WarmPool hedge).
	WarmPool int
	// Seed drives the cold-start draws. Same seed, same delays.
	Seed uint64
}

// Validate rejects impossible parameters.
func (m *Model) Validate() error {
	if m == nil {
		return nil
	}
	if m.SpotDiscount < 0 || m.SpotDiscount > 1 {
		return fmt.Errorf("market: spot discount %v outside [0, 1]", m.SpotDiscount)
	}
	if m.WarmPool < 0 {
		return fmt.Errorf("market: negative warm pool %d", m.WarmPool)
	}
	if err := m.Cold.Validate(); err != nil {
		return err
	}
	if m.Trace != nil {
		if _, err := NewTrace(m.Trace.Times, m.Trace.Mult); err != nil {
			return err
		}
	}
	return nil
}

// Terms returns the lease terms for VM id of a schedule, drawing its
// cold-start delay from the model's distribution. Warm leases anchor at
// time zero instead of paying the delay in-line. Nil models return nil
// (legacy terms).
func (m *Model) Terms(id int, warm bool) *Lease {
	if m == nil {
		return nil
	}
	return &Lease{
		Market:    m.Market,
		Gran:      m.Gran,
		ColdStart: m.Cold.Draw(m.Seed, id),
		Warm:      warm,
		Fallback:  m.Fallback,
		Discount:  m.SpotDiscount,
		Trace:     m.Trace,
	}
}

// String summarizes the model for reports and logs.
func (m *Model) String() string {
	if m == nil {
		return "market{none}"
	}
	var opts []string
	if m.Market == Spot {
		d := m.SpotDiscount
		if d == 0 {
			d = DefaultSpotDiscount
		}
		opts = append(opts, fmt.Sprintf("discount: %.2g", d))
		if m.Trace != nil {
			opts = append(opts, fmt.Sprintf("trace: %d segments", m.Trace.Len()))
		}
		if m.Fallback {
			opts = append(opts, "fallback")
		}
	}
	if m.WarmPool > 0 {
		opts = append(opts, fmt.Sprintf("warm: %d", m.WarmPool))
	}
	s := fmt.Sprintf("market{%s/%s, cold: %s", m.Market, m.Gran, m.Cold)
	if len(opts) > 0 {
		s += ", " + strings.Join(opts, ", ")
	}
	return s + "}"
}

// Default returns the shared default market model the hedging strategies
// fall back to when no experiment-wide model is configured: on-demand
// per-BTU billing, a 30% spot discount over the seed-1 synthetic trace,
// and uniform 30–120 s cold starts. The returned model is shared and
// read-only; copy before mutating.
func Default() *Model {
	defaultOnce.Do(func() {
		defaultModel = &Model{
			SpotDiscount: DefaultSpotDiscount,
			Trace:        Synthetic(1, 48, 900, 0.2),
			Cold:         ColdStart{Dist: "uniform", Min: 30, Max: 120},
			Seed:         1,
		}
	})
	return defaultModel
}

var (
	defaultOnce  sync.Once
	defaultModel *Model
)

// presets are the named market scenarios in alphabetical order, each with
// the constructor of its model. Presets, PresetNames and Preset read it.
var presets = [...]struct {
	name  string
	build func() *Model
}{
	{"none", func() *Model { return nil }},
	{"ondemand-min", func() *Model {
		return &Model{Gran: PerMinute, Cold: ColdStart{Dist: "uniform", Min: 30, Max: 90}, Seed: 1}
	}},
	{"ondemand-sec", func() *Model {
		return &Model{Gran: PerSecond, Cold: ColdStart{Dist: "fixed", Mean: 45}, Seed: 1}
	}},
	{"spot", func() *Model {
		return &Model{Market: Spot, SpotDiscount: DefaultSpotDiscount,
			Trace: Synthetic(1, 48, 900, 0.2),
			Cold:  ColdStart{Dist: "uniform", Min: 30, Max: 120}, Seed: 1}
	}},
	{"spot-fallback", func() *Model {
		return &Model{Market: Spot, SpotDiscount: DefaultSpotDiscount,
			Trace:    Synthetic(1, 48, 900, 0.2),
			Cold:     ColdStart{Dist: "uniform", Min: 30, Max: 120},
			Fallback: true, Seed: 1}
	}},
	{"warm", func() *Model {
		return &Model{Gran: PerMinute, Cold: ColdStart{Dist: "fixed", Mean: 120},
			WarmPool: 4, Seed: 1}
	}},
}

// Presets are named market scenarios for CLIs, experiment configs and the
// service, mirroring fault.Presets. "none" is the paper's economics (a
// nil model).
func Presets() map[string]*Model {
	m := make(map[string]*Model, len(presets))
	for _, p := range presets {
		m[p.name] = p.build()
	}
	return m
}

// PresetNames lists the preset scenarios alphabetically.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// Preset resolves a named market scenario, case-insensitively, building
// only that preset's model: a fresh one on every call, nil for "none".
func Preset(name string) (*Model, error) {
	lc := strings.ToLower(name)
	for _, p := range presets {
		if p.name == lc {
			return p.build(), nil
		}
	}
	return nil, fmt.Errorf("market: unknown preset %q (valid: %s)",
		name, strings.Join(PresetNames(), ", "))
}
