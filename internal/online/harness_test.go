package online

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/obs"
	"repro/internal/stats"
)

// marketConfig is baseConfig under a given market model.
func marketConfig(m *market.Model) Config {
	cfg := baseConfig()
	cfg.Market = m
	return cfg
}

func TestColdStartDelaysFirstResponse(t *testing.T) {
	// Pre-booted pool (nil market): the first 3x300s chain responds in
	// exactly the critical path. With a fixed 120s cold start every task
	// of the first instance waits for its VM's boot.
	base, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(marketConfig(&market.Model{Cold: market.ColdStart{Dist: "fixed", Mean: 120}, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if base.ResponseTimes.Min < 900-1e-6 || base.ResponseTimes.Min > 900+1e-6 {
		t.Fatalf("pre-booted min response = %v, want the 900s critical path", base.ResponseTimes.Min)
	}
	// An instance served by a freshly rented VM cannot start before the
	// boot completes; a lone instance always rents fresh.
	lone := marketConfig(&market.Model{Cold: market.ColdStart{Dist: "fixed", Mean: 120}, Seed: 1})
	lone.Instances = 1
	lres, err := Run(lone)
	if err != nil {
		t.Fatal(err)
	}
	if lres.ResponseTimes.Min < 1020-1e-6 {
		t.Errorf("cold-start response = %v, want >= 1020 (900 + 120 boot)", lres.ResponseTimes.Min)
	}
	if cold.ColdStartWaitS < 120*float64(cold.VMsRented)-1e-9 {
		t.Errorf("ColdStartWaitS = %v for %d rentals of 120s boots", cold.ColdStartWaitS, cold.VMsRented)
	}
	if base.ColdStartWaitS != 0 {
		t.Errorf("pre-booted run reports ColdStartWaitS = %v", base.ColdStartWaitS)
	}
}

func TestBillingGranularityOrdersCost(t *testing.T) {
	// Identical load, three billing granularities, no cold starts: the
	// finer the unit, the less idle tail is paid for.
	run := func(g market.Granularity, nilModel bool) *Result {
		t.Helper()
		var m *market.Model
		if !nilModel {
			m = &market.Model{Gran: g, Seed: 1}
		}
		res, err := Run(marketConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	btu := run(market.PerBTU, true)
	minute := run(market.PerMinute, false)
	second := run(market.PerSecond, false)
	// 300s tasks are exact minute multiples, so per-minute can tie
	// per-second; per-BTU pays for the hour-long idle tails either way.
	if !(second.TotalCost <= minute.TotalCost && minute.TotalCost < btu.TotalCost) {
		t.Errorf("cost order violated: per-second %v, per-minute %v, per-BTU %v",
			second.TotalCost, minute.TotalCost, btu.TotalCost)
	}
	// The nil-market path and an explicit per-BTU model are the same
	// economics.
	explicit := run(market.PerBTU, false)
	if explicit.TotalCost != btu.TotalCost {
		t.Errorf("explicit per-BTU cost %v != nil-market cost %v", explicit.TotalCost, btu.TotalCost)
	}
	// Per-second paid time hugs busy time: no instance ends mid-task, so
	// only boot-free idle gaps between dispatches are paid.
	if u := second.Utilization(); u < 0.95 {
		t.Errorf("per-second utilization = %v, want near 1", u)
	}
}

func TestSpotPreemptionRequeuesAndCompletes(t *testing.T) {
	cfg := marketConfig(&market.Model{
		Market: market.Spot,
		Cold:   market.ColdStart{Dist: "fixed", Mean: 30},
		Seed:   1,
	})
	cfg.Faults = &fault.Config{SpotPreemptRate: 2, Seed: 11} // ~2 reclaims per VM-hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTimes.N != cfg.Instances {
		t.Fatalf("completed %d of %d instances", res.ResponseTimes.N, cfg.Instances)
	}
	if res.Preemptions == 0 {
		t.Error("no preemptions at 2 reclaims per VM-hour over a 20-instance run")
	}
	if res.Crashes != 0 {
		t.Errorf("crashes = %d with only SpotPreemptRate configured", res.Crashes)
	}
}

func TestCrashComposesWithPreemption(t *testing.T) {
	cfg := marketConfig(&market.Model{Market: market.Spot, Seed: 1})
	cfg.Faults = &fault.Config{CrashRate: 1, SpotPreemptRate: 1, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTimes.N != cfg.Instances {
		t.Fatalf("completed %d of %d instances", res.ResponseTimes.N, cfg.Instances)
	}
	if res.Crashes+res.Preemptions == 0 {
		t.Error("no lease losses with both crash and preemption rates set")
	}
	// On-demand pools never see preemptions, whatever the fault config.
	od := baseConfig()
	od.Faults = &fault.Config{CrashRate: 1, SpotPreemptRate: 5, Seed: 3}
	ores, err := Run(od)
	if err != nil {
		t.Fatal(err)
	}
	if ores.Preemptions != 0 {
		t.Errorf("on-demand pool reports %d preemptions", ores.Preemptions)
	}
	if ores.ResponseTimes.N != od.Instances {
		t.Fatalf("completed %d of %d instances under crashes", ores.ResponseTimes.N, od.Instances)
	}
}

func TestScalerCatalog(t *testing.T) {
	names := ScalerNames()
	if len(names) != len(Scalers()) {
		t.Fatalf("ScalerNames has %d entries, Scalers %d", len(names), len(Scalers()))
	}
	for _, name := range names {
		s, err := ParseScaler(strings.ToUpper(name))
		if err != nil {
			t.Fatalf("ParseScaler(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ParseScaler(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ParseScaler("nope"); err == nil {
		t.Error("ParseScaler accepted an unknown policy")
	}
	if _, err := ParseDispatch("nope"); err == nil {
		t.Error("ParseDispatch accepted an unknown policy")
	}
	if d, err := ParseDispatch(""); err != nil || d != FIFO {
		t.Errorf("ParseDispatch(\"\") = %v, %v; want FIFO", d, err)
	}
}

func TestScalerDeterminism(t *testing.T) {
	for _, name := range ScalerNames() {
		for _, dispatch := range []Dispatch{FIFO, SJF} {
			s, err := ParseScaler(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := marketConfig(&market.Model{
				Gran: market.PerMinute,
				Cold: market.ColdStart{Dist: "uniform", Min: 30, Max: 90},
				Seed: 1,
			})
			cfg.Scaler = s
			cfg.Dispatch = dispatch
			cfg.Deadline = 2000
			cfg.Faults = &fault.Config{CrashRate: 0.5, Seed: 5}
			a, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dispatch, err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dispatch, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: two runs of one config differ:\n%+v\n%+v", name, dispatch, a, b)
			}
			if a.ResponseTimes.N != cfg.Instances {
				t.Errorf("%s/%s: completed %d of %d", name, dispatch, a.ResponseTimes.N, cfg.Instances)
			}
			if a.SLAMet < 0 || a.SLAMet > cfg.Instances {
				t.Errorf("%s/%s: SLAMet = %d", name, dispatch, a.SLAMet)
			}
		}
	}
}

func TestScalersHoldSLAUnderLoad(t *testing.T) {
	// A burstier stream than baseConfig: the deadline and predictive
	// policies must still complete everything within pool bounds.
	for _, name := range ScalerNames() {
		s, err := ParseScaler(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig()
		cfg.MeanInterarrival = 120
		cfg.Instances = 60
		cfg.Scaler = s
		cfg.Deadline = 1800
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ResponseTimes.N != cfg.Instances {
			t.Fatalf("%s: completed %d of %d", name, res.ResponseTimes.N, cfg.Instances)
		}
		if res.PeakVMs > cfg.MaxVMs {
			t.Errorf("%s: peak pool %d exceeds MaxVMs %d", name, res.PeakVMs, cfg.MaxVMs)
		}
		if frac := float64(res.SLAMet) / float64(res.ResponseTimes.N); frac < 0.5 {
			t.Errorf("%s: only %.0f%% of instances met an achievable deadline", name, 100*frac)
		}
	}
}

func mixEntries(t *testing.T) []MixEntry {
	t.Helper()
	order, err := ndwf.Named("order")
	if err != nil {
		t.Fatal(err)
	}
	montage, err := ndwf.Named("montage2")
	if err != nil {
		t.Fatal(err)
	}
	return []MixEntry{{Template: order, Weight: 3}, {Template: montage, Weight: 1}}
}

func TestMixDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Instance = nil
	cfg.Mix = mixEntries(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := baseConfig()
	cfg2.Instance = nil
	cfg2.Mix = mixEntries(t)
	b, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two mix runs of one seed differ:\n%+v\n%+v", a, b)
	}
	// Instance draws are hash-derived per index, so the arrival process
	// matches a fixed-builder run under the same seed.
	fixed, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.ResponseTimes.N != fixed.ResponseTimes.N {
		t.Errorf("mix run completed %d, fixed run %d", a.ResponseTimes.N, fixed.ResponseTimes.N)
	}
}

func TestMixValidation(t *testing.T) {
	order, err := ndwf.Named("order")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero weight", func(c *Config) {
			c.Instance = nil
			c.Mix = []MixEntry{{Template: order, Weight: 0}}
		}},
		{"both instance and mix", func(c *Config) {
			c.Mix = []MixEntry{{Template: order, Weight: 1}}
		}},
		{"invalid template", func(c *Config) {
			c.Instance = nil
			c.Mix = []MixEntry{{Template: ndwf.Template{Name: "empty"}, Weight: 1}}
		}},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

func TestChromeTraceRendersPoolTimeline(t *testing.T) {
	var col obs.Collector
	cfg := marketConfig(&market.Model{
		Market: market.Spot,
		Gran:   market.PerMinute,
		Cold:   market.ColdStart{Dist: "fixed", Mean: 60},
		Seed:   1,
	})
	cfg.Faults = &fault.Config{SpotPreemptRate: 2, Seed: 11}
	cfg.Recorder = &col
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) == 0 {
		t.Fatal("recorder saw no events")
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col.Events, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace output is not valid JSON")
	}
	for _, want := range []string{`"boot"`, `"preempt"`, `"vm0`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
	if res.Preemptions > 0 && !strings.Contains(out, "preempt") {
		t.Error("preemptions happened but no preempt marker rendered")
	}
}

func TestConfigValidationExtended(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative deadline", func(c *Config) { c.Deadline = -1 }},
		{"bad market", func(c *Config) { c.Market = &market.Model{SpotDiscount: 2} }},
		{"bad faults", func(c *Config) { c.Faults = &fault.Config{CrashRate: -1} }},
		{"bad cold start", func(c *Config) {
			c.Market = &market.Model{Cold: market.ColdStart{Dist: "bogus"}}
		}},
		{"instance type 99", func(c *Config) { c.Type = cloud.InstanceType(99) }},
		{"instance type -1", func(c *Config) { c.Type = cloud.InstanceType(-1) }},
		{"region 99", func(c *Config) { c.Region = cloud.Region(99) }},
		// The builder's DAGs are only seen at arrival, mid-run.
		{"cyclic instance", func(c *Config) {
			c.Instance = func(int, *stats.RNG) *dag.Workflow {
				w := dag.New("cycle")
				a, b := w.AddTask("a", 1), w.AddTask("b", 1)
				w.AddEdge(a, b, 0)
				w.AddEdge(b, a, 0)
				return w
			}
		}},
		{"empty instance", func(c *Config) {
			c.Instance = func(int, *stats.RNG) *dag.Workflow { return dag.New("empty") }
		}},
		{"nil instance", func(c *Config) {
			c.Instance = func(int, *stats.RNG) *dag.Workflow { return nil }
		}},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}
