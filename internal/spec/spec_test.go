package spec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/wfio"
)

// leaves lists the dotted paths of a struct type's exported leaf fields:
// every field that is not itself a struct, found by reflection so that a
// field added later is covered without being listed.
func leaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			out = append(out, leaves(f.Type, prefix+f.Name+".")...)
		default:
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// bump sets a boolean or numeric leaf to a different value; it reports
// false for kinds whose other valid values need a named change.
func bump(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	default:
		return false
	}
	return true
}

// keyed is a spec: Schedule, Compare, SLA or Online.
type keyed interface {
	Validate() error
	Key() Key
}

// checkEveryLeafKeyed changes each exported leaf of a fresh base spec to
// a different valid value and requires the key to change, and the
// canonical spelling to validate to itself. A leaf whose
// kind bump cannot change, or whose bump is invalid, takes a named
// change from changes; a change may also adjust the reference spec, so
// that the pair differs in that leaf alone.
func checkEveryLeafKeyed[T any, P interface {
	*T
	keyed
}](t *testing.T, base func() T, changes map[string]func(ref, s *T)) {
	t.Helper()
	paths := leaves(reflect.TypeOf(base()), "")
	for _, path := range paths {
		ref, s := base(), base()
		if change, ok := changes[path]; ok {
			change(&ref, &s)
		} else {
			v := reflect.ValueOf(&s).Elem()
			for _, name := range strings.Split(path, ".") {
				v = v.FieldByName(name)
			}
			if !bump(v) {
				t.Errorf("%s: no change defined for this leaf", path)
				continue
			}
		}
		if err := P(&ref).Validate(); err != nil {
			t.Fatalf("%s: reference spec invalid: %v", path, err)
		}
		if err := P(&s).Validate(); err != nil {
			t.Errorf("%s: changed spec invalid: %v", path, err)
			continue
		}
		key := P(&s).Key()
		if key == P(&ref).Key() {
			t.Errorf("%s: changing it leaves the key unchanged", path)
		}
		if err := P(&s).Validate(); err != nil || P(&s).Key() != key {
			t.Errorf("%s: the canonical spelling does not validate to itself (%v)", path, err)
		}
	}
	for path := range changes {
		if !slices.Contains(paths, path) {
			t.Errorf("change for %s names no leaf", path)
		}
	}
}

// fixtures writes one file of each kind a spec can read.
func fixtures(t *testing.T) (workflowFile, templateFile, traceFile string) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"wf.json":   `{"name":"pair","tasks":[{"name":"a","work":60},{"name":"b","work":90}],"edges":[{"from":0,"to":1}]}`,
		"tpl.json":  `{"name":"tiny","root":{"task":{"name":"a","work":100}}}`,
		"trace.txt": "0 1.0\n1800 0.8\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "wf.json"), filepath.Join(dir, "tpl.json"), filepath.Join(dir, "trace.txt")
}

var diamond = wfio.File{Name: "diamond",
	Tasks: []wfio.TaskJSON{{Name: "a", Work: 600}, {Name: "b", Work: 1200}, {Name: "c", Work: 900}, {Name: "d", Work: 300}},
	Edges: []wfio.EdgeJSON{{From: 0, To: 1, Data: 1 << 20}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}}

const tinyTemplate = `{"name":"tiny","root":{"seq":[{"task":{"name":"a","work":100}},{"task":{"name":"b","work":200}}]}}`

// workflowChanges and the other part tables switch a part's one-of
// source or name a valid alternative for its string leaves.
func workflowChanges[T any](part func(*T) *Workflow, file string) map[string]func(ref, s *T) {
	return map[string]func(ref, s *T){
		"Workflow.Name":    func(_, s *T) { part(s).Name = "CSTEM" },
		"Workflow.Inline":  func(_, s *T) { *part(s) = Workflow{Inline: &diamond} },
		"Workflow.File":    func(_, s *T) { *part(s) = Workflow{File: file} },
		"Workflow.Builder": func(_, s *T) { *part(s) = Workflow{Builder: "mapreduce", M: 16, R: 8} },
	}
}

func templateChanges[T any](part func(*T) *Template, file string) map[string]func(ref, s *T) {
	return map[string]func(ref, s *T){
		"Template.Name":   func(_, s *T) { *part(s) = Template{Name: "montage2"} },
		"Template.Inline": func(_, s *T) { *part(s) = Template{Inline: json.RawMessage(tinyTemplate)} },
		"Template.File":   func(_, s *T) { *part(s) = Template{File: file} },
	}
}

func faultChanges[T any](part func(*T) *Faults) map[string]func(ref, s *T) {
	return map[string]func(ref, s *T){
		"Faults.Preset":   func(_, s *T) { part(s).Preset = "flaky" },
		"Faults.Recovery": func(_, s *T) { part(s).Recovery = "resubmit" },
	}
}

func marketChanges[T any](part func(*T) *Market, trace string) map[string]func(ref, s *T) {
	return map[string]func(ref, s *T){
		"Market.Preset":      func(_, s *T) { part(s).Preset = "spot-fallback" },
		"Market.Market":      func(_, s *T) { part(s).Market = "ondemand" },
		"Market.Granularity": func(_, s *T) { part(s).Granularity = "sec" },
		"Market.TraceFile":   func(_, s *T) { part(s).TraceFile = trace },
		"Market.Cold":        func(_, s *T) { part(s).Cold = &Cold{Dist: "fixed", Mean: 10} },
	}
}

func merge[T any](tables ...map[string]func(ref, s *T)) map[string]func(ref, s *T) {
	out := map[string]func(ref, s *T){}
	for _, table := range tables {
		for k, v := range table {
			out[k] = v
		}
	}
	return out
}

// TestKeyCoversEveryField is the cache's safety property: for each spec,
// every exported leaf field — including any added later — takes part in
// the key, so two problems that differ in anything an answer depends on
// never share a cache entry. It covers each variant the old hand-written
// hasher listed: workflow, scenario, strategy, region, seed, simulate,
// boot, every fault field, market preset, kind and seed, and debug.
func TestKeyCoversEveryField(t *testing.T) {
	wfFile, tplFile, trace := fixtures(t)

	t.Run("Schedule", func(t *testing.T) {
		base := func() Schedule {
			return Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"},
				Seed: 42, Simulate: true, Faults: Faults{CrashRate: 0.5, Seed: 3},
				Market: Market{Preset: "spot", Seed: 5}}
		}
		wf := func(s *Schedule) *Workflow { return &s.Workflow }
		checkEveryLeafKeyed(t, base, merge(workflowChanges(wf, wfFile),
			faultChanges(func(s *Schedule) *Faults { return &s.Faults }),
			marketChanges(func(s *Schedule) *Market { return &s.Market }, trace),
			map[string]func(ref, s *Schedule){
				"Scenario":           func(_, s *Schedule) { s.Scenario = "Best case" },
				"Region":             func(_, s *Schedule) { s.Region = "eu-dublin" },
				"Strategy.Label":     func(_, s *Schedule) { s.Strategy.Label = "CPA-Eager" },
				"Strategy.Algorithm": func(_, s *Schedule) { s.Strategy = Strategy{Algorithm: "HEFT"} },
				"Strategy.Policy": func(_, s *Schedule) {
					s.Strategy = Strategy{Algorithm: "AllPar", Policy: "AllParExceed"}
				},
				"Strategy.Instance": func(_, s *Schedule) { s.Strategy = Strategy{Algorithm: "HEFT", Instance: "large"} },
				// Faults need the replay: compare with and without it,
				// both fault-free.
				"Simulate": func(ref, s *Schedule) { ref.Faults, s.Faults, s.Simulate = Faults{}, Faults{}, false },
			}))
	})

	t.Run("Compare", func(t *testing.T) {
		base := func() Compare { return Compare{Workflow: Workflow{Name: "Montage"}, Seed: 42} }
		checkEveryLeafKeyed(t, base, merge(workflowChanges(func(c *Compare) *Workflow { return &c.Workflow }, wfFile),
			map[string]func(ref, s *Compare){
				"Scenario": func(_, s *Compare) { s.Scenario = "Worst case" },
				"Region":   func(_, s *Compare) { s.Region = "eu-dublin" },
			}))
	})

	t.Run("SLA", func(t *testing.T) {
		base := func() SLA {
			return SLA{Template: Template{Name: "order"}, DeadlineS: 4000, Samples: 10, Seed: 7,
				Strategies: []string{"OneVMperTask-s"}, Faults: Faults{CrashRate: 0.1, Seed: 3}}
		}
		checkEveryLeafKeyed(t, base, merge(templateChanges(func(s *SLA) *Template { return &s.Template }, tplFile),
			faultChanges(func(s *SLA) *Faults { return &s.Faults }),
			map[string]func(ref, s *SLA){
				"Confidence": func(_, s *SLA) { s.Confidence = 0.9 },
				"Region":     func(_, s *SLA) { s.Region = "eu-dublin" },
				"Strategies": func(_, s *SLA) { s.Strategies = []string{"GAIN"} },
				"Markets":    func(_, s *SLA) { s.Markets = []string{"spot"} },
			}))
	})

	t.Run("Online", func(t *testing.T) {
		base := func() Online {
			return Online{Mix: []MixEntry{{Template: Template{Name: "order"}, Weight: 3}},
				InterarrivalS: 300, Instances: 20, MaxVMs: 8, Seed: 7,
				Market: Market{Preset: "spot", Seed: 5}, Faults: Faults{CrashRate: 0.2, Seed: 3}}
		}
		tpl := templateChanges(func(o *Online) *Template { return &o.Template }, tplFile)
		for path, change := range tpl {
			tpl[path] = func(ref, s *Online) { change(ref, s); s.Mix = nil }
		}
		checkEveryLeafKeyed(t, base, merge(tpl,
			faultChanges(func(o *Online) *Faults { return &o.Faults }),
			marketChanges(func(o *Online) *Market { return &o.Market }, trace),
			map[string]func(ref, s *Online){
				"Mix":      func(_, s *Online) { s.Mix = []MixEntry{{Template: Template{Name: "order"}, Weight: 2}} },
				"Instance": func(_, s *Online) { s.Instance = "medium" },
				"Region":   func(_, s *Online) { s.Region = "eu-dublin" },
				"Scaler":   func(_, s *Online) { s.Scaler = "deadline" },
				"Dispatch": func(_, s *Online) { s.Dispatch = "sjf" },
			}))
	})

	// The kind tag separates a schedule from a compare of the same
	// workflow, scenario, region and seed.
	s := Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"}}
	c := Compare{Workflow: Workflow{Name: "Montage"}}
	if s.Validate() != nil || c.Validate() != nil || s.Key() == c.Key() {
		t.Error("a schedule and a compare share a key")
	}
}

// equalPair is two spellings of one problem.
type equalPair struct {
	name string
	a, b keyed
}

// TestKeyFoldsCanonicalEquals pins the folds: specs that differ only in
// letter case of a name, in a default spelled out, in a fault block that
// injects nothing, or in the formatting of an inline document hash equal,
// and validating twice changes nothing.
func TestKeyFoldsCanonicalEquals(t *testing.T) {
	sched := func(f func(*Schedule)) *Schedule {
		s := &Schedule{Workflow: Workflow{Name: "montage24"}, Strategy: Strategy{Label: "GAIN"}, Seed: 7, Simulate: true}
		f(s)
		return s
	}
	sla := func(f func(*SLA)) *SLA {
		s := &SLA{Template: Template{Name: "order"}, DeadlineS: 4000, Strategies: []string{"GAIN"}}
		f(s)
		return s
	}
	online := func(f func(*Online)) *Online {
		o := &Online{Mix: []MixEntry{{Template: Template{Name: "order"}}}, InterarrivalS: 300, Instances: 20}
		f(o)
		return o
	}
	var shuffled wfio.File
	if err := json.Unmarshal([]byte(`{"edges":[{"to":3,"from":2},{"from":1,"to":3},{"from":0,"to":2},
		{"data":1048576,"from":0,"to":1}],"tasks":[{"work":600,"name":"a"},{"name":"b","work":1.2e3},
		{"name":"c","work":900},{"name":"d","work":300}],"name":"diamond"}`), &shuffled); err != nil {
		t.Fatal(err)
	}
	spaced := "{ \"root\" : {\"seq\":[ {\"task\":{\"work\":100,\"name\":\"a\"}},\n{\"task\":{\"name\":\"b\",\"work\":200}} ]},\"name\":\"tiny\" }"
	none := func(*Schedule) {}
	for _, p := range []equalPair{
		{"strategy case", sched(none), sched(func(s *Schedule) { s.Strategy.Label = "gain" })},
		{"composed strategy", sched(func(s *Schedule) { s.Strategy.Label = "StartParExceed-m" }),
			sched(func(s *Schedule) {
				s.Strategy = Strategy{Algorithm: "heft", Policy: "StartParExceed", Instance: "medium"}
			})},
		{"composed strategy without a label", sched(func(s *Schedule) {
			s.Strategy = Strategy{Algorithm: "HEFT", Policy: "StartParExceed", Instance: "xlarge"}
		}), sched(func(s *Schedule) { s.Strategy = Strategy{Algorithm: "heft", Policy: "StartParExceed", Instance: "xl"} })},
		{"scenario default", sched(none), sched(func(s *Schedule) { s.Scenario = "pareto" })},
		{"region default and case", sched(none), sched(func(s *Schedule) { s.Region = "US-East-Virginia" })},
		{"market default", sched(none), sched(func(s *Schedule) { s.Market.Preset = "None" })},
		{"market case and pinned seed", sched(func(s *Schedule) { s.Market.Preset = "spot" }),
			sched(func(s *Schedule) { s.Market = Market{Preset: "Spot", Seed: 1} })},
		{"inactive faults", sched(none), sched(func(s *Schedule) { s.Faults = Faults{Recovery: "fail", MaxRetries: 3, Seed: 9} })},
		{"fault recovery default", sched(func(s *Schedule) { s.Faults = Faults{CrashRate: 0.5} }),
			sched(func(s *Schedule) { s.Faults = Faults{CrashRate: 0.5, Recovery: "Retry"} })},
		{"inline workflow formatting", sched(func(s *Schedule) { s.Workflow = Workflow{Inline: &diamond} }),
			sched(func(s *Schedule) { s.Workflow = Workflow{Inline: &shuffled} })},
		{"compare defaults", &Compare{Workflow: Workflow{Name: "CSTEM"}},
			&Compare{Workflow: Workflow{Name: "CSTEM"}, Scenario: "PARETO", Region: "us-east-virginia"}},
		{"sla defaults", sla(func(*SLA) {}), sla(func(s *SLA) {
			s.Confidence, s.Samples, s.Markets, s.Region = 0.95, 200, []string{"none"}, "us-east-virginia"
		})},
		{"sla portfolio repeats", sla(func(s *SLA) { s.Markets = []string{"spot"} }), sla(func(s *SLA) {
			s.Strategies, s.Markets = []string{"GAIN", "gain", "Gain"}, []string{"spot", "Spot"}
		})},
		{"sla inline template formatting", sla(func(s *SLA) { s.Template = Template{Inline: json.RawMessage(tinyTemplate)} }),
			sla(func(s *SLA) { s.Template = Template{Inline: json.RawMessage(spaced)} })},
		{"sla inactive faults", sla(func(*SLA) {}), sla(func(s *SLA) { s.Faults = Faults{Recovery: "resubmit", Seed: 4} })},
		{"online defaults", online(func(*Online) {}), online(func(o *Online) {
			o.Mix[0].Weight, o.MaxVMs, o.Instance, o.Region = 1, 32, "small", "us-east-virginia"
			o.Scaler, o.Dispatch, o.Market.Preset = "Reactive", "FIFO", "none"
		})},
		{"online template is a mix of one", online(func(*Online) {}),
			online(func(o *Online) { o.Template, o.Mix = Template{Name: "order"}, nil })},
	} {
		for _, s := range []keyed{p.a, p.b} {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		if p.a.Key() != p.b.Key() {
			t.Errorf("%s: canonical-equal specs hash differently", p.name)
		}
		before := p.b.Key()
		if err := p.b.Validate(); err != nil || p.b.Key() != before {
			t.Errorf("%s: validating a canonical spec again changed it (%v)", p.name, err)
		}
	}
}

// TestPartsResolve checks what validated parts and specs hand to the
// planners: the resolved values, the labels reports echo, and the
// command-line mapping of a name or a file.
func TestPartsResolve(t *testing.T) {
	wfFile, tplFile, _ := fixtures(t)
	for _, c := range []struct {
		w     Workflow
		label string
		tasks int
	}{
		{Workflow{Name: "montage24"}, "montage24", 78},
		{Workflow{Inline: &diamond}, "diamond", 4},
		{Workflow{Inline: &wfio.File{Tasks: []wfio.TaskJSON{{Work: 5}}}}, "custom", 1},
		{Workflow{File: wfFile}, "pair", 2},
		{Workflow{Builder: "mapreduce", M: 16, R: 8}, "mapreduce-16x8", 1 + 16 + 16 + 8 + 1},
		{WorkflowArg(wfFile), "pair", 2},
		{WorkflowArg("Fig1"), "Fig1", 0},
	} {
		if err := c.w.Validate(); err != nil {
			t.Fatalf("%+v: %v", c.w, err)
		}
		if c.w.Label() != c.label || (c.tasks > 0 && c.w.Value().Len() != c.tasks) {
			t.Errorf("%+v: label %q, %d tasks; want %q, %d", c.w, c.w.Label(), c.w.Value().Len(), c.label, c.tasks)
		}
	}
	if w := WorkflowArg("no-such-workflow"); w.Name != "no-such-workflow" || w.Validate() == nil {
		t.Errorf("unknown name and no file: %+v", w)
	}
	// A registry name is only parsed: validating even a large generator
	// builds nothing, and Value builds it once, on first use.
	big := Workflow{Name: "montage2000"}
	if n := testing.AllocsPerRun(5, func() { big.Validate() }); n > 10 {
		t.Errorf("validating %q costs %v allocations; it must not build the workflow", big.Name, n)
	}
	if a, b := big.Value(), big.Value(); a != b || a.Len() != 3*2000+6 || big.Label() != "montage2000" {
		t.Errorf("%q: built twice (%v) or wrong: %d tasks, label %q", big.Name, a != b, a.Len(), big.Label())
	}
	for _, c := range []struct {
		t     Template
		label string
	}{
		{TemplateArg("order"), "order"},
		{TemplateArg(tplFile), "tiny"},
		{Template{Inline: json.RawMessage(`{"root":{"task":{"name":"a","work":1}}}`)}, "custom"},
	} {
		if err := c.t.Validate(); err != nil || c.t.Label() != c.label || c.t.Value().Name != c.t.Label() && c.label != "custom" {
			t.Errorf("%+v: label %q, err %v; want %q", c.t, c.t.Label(), err, c.label)
		}
	}

	sp := Schedule{Workflow: Workflow{Name: "CSTEM"}, Strategy: Strategy{Label: "allparexceed-m"},
		Scenario: "best case", Region: "EU-Dublin", Market: Market{Preset: "Warm"}}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Strategy.Value().Name() != "AllParExceed-m" || sp.Scenario.Value().String() != "Best case" ||
		sp.Region.Value().String() != "eu-dublin" || sp.Market.Value().WarmPool != 4 || sp.Faults.Value() != nil {
		t.Errorf("resolved schedule: %+v", sp)
	}

	sla := SLA{Template: Template{Name: "order"}, DeadlineS: 4000, Seed: 5, Debug: true,
		Faults: Faults{CrashRate: 0.1}, Markets: []string{"Spot", "none"}}
	if err := sla.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := sla.Search()
	if cfg.Candidates != nil || !slices.Equal(cfg.Markets, []string{"spot", "none"}) || cfg.Target != 0.95 ||
		cfg.Samples != 200 || cfg.Seed != 5 || !cfg.Paranoid || cfg.Faults.CrashRate != 0.1 || cfg.Opts.Platform == nil {
		t.Errorf("full-portfolio search: %+v", cfg)
	}
	sla.Strategies = []string{"gain"}
	if err := sla.Validate(); err != nil {
		t.Fatal(err)
	}
	if cands := sla.Search().Candidates; len(cands) != 2 || cands[0].Strategy != "GAIN" || cands[1].Market != "none" {
		t.Errorf("restricted portfolio: %+v", cands)
	}

	o := Online{Template: Template{Name: "order"}, InterarrivalS: 300, Instances: 20, Instance: "m",
		MinVMs: 1, Scaler: "Deadline", Dispatch: "SJF", DeadlineS: 900, Market: Market{Preset: "spot"},
		Faults: Faults{PreemptRate: 0.5}, Seed: 3}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	ocfg := o.Config()
	if len(ocfg.Mix) != 1 || ocfg.Mix[0].Weight != 1 || ocfg.MaxVMs != 32 || ocfg.MinVMs != 1 ||
		ocfg.Type.String() != "medium" || ocfg.Scaler.Name() != "deadline" || ocfg.Dispatch.String() != "sjf" ||
		ocfg.Deadline != 900 || ocfg.Market == nil || ocfg.Faults.SpotPreemptRate != 0.5 || ocfg.Seed != 3 {
		t.Errorf("online run: %+v", ocfg)
	}
}

func TestValidateRejects(t *testing.T) {
	_, _, trace := fixtures(t)
	schedule := func(f func(*Schedule)) *Schedule {
		s := &Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"}, Simulate: true}
		f(s)
		return s
	}
	online := func(f func(*Online)) *Online {
		o := &Online{Template: Template{Name: "order"}, InterarrivalS: 1, Instances: 1}
		f(o)
		return o
	}
	for name, s := range map[string]keyed{
		"unknown workflow":       &Compare{Workflow: Workflow{Name: "Ghost"}},
		"missing workflow file":  &Compare{Workflow: Workflow{File: "no-such.json"}},
		"invalid inline":         &Compare{Workflow: Workflow{Inline: &wfio.File{Name: "empty"}}},
		"unknown builder":        &Compare{Workflow: Workflow{Builder: "fractal"}},
		"unknown scenario":       &Compare{Workflow: Workflow{Name: "CSTEM"}, Scenario: "Typical"},
		"unknown region":         &Compare{Workflow: Workflow{Name: "CSTEM"}, Region: "mars"},
		"label and composed":     schedule(func(s *Schedule) { s.Strategy.Algorithm = "HEFT" }),
		"no strategy":            schedule(func(s *Schedule) { s.Strategy = Strategy{} }),
		"no algorithm":           schedule(func(s *Schedule) { s.Strategy = Strategy{Policy: "OneVMperTask"} }),
		"unknown algorithm":      schedule(func(s *Schedule) { s.Strategy = Strategy{Algorithm: "annealing"} }),
		"unknown policy":         schedule(func(s *Schedule) { s.Strategy = Strategy{Algorithm: "HEFT", Policy: "Greedy"} }),
		"unknown instance":       schedule(func(s *Schedule) { s.Strategy = Strategy{Algorithm: "HEFT", Instance: "huge"} }),
		"AllPar with OneVM":      schedule(func(s *Schedule) { s.Strategy = Strategy{Algorithm: "AllPar"} }),
		"negative boot":          schedule(func(s *Schedule) { s.BootS = -1 }),
		"boot without replay":    schedule(func(s *Schedule) { s.Simulate, s.BootS = false, 30 }),
		"unknown fault preset":   schedule(func(s *Schedule) { s.Faults.Preset = "apocalypse" }),
		"unknown recovery":       schedule(func(s *Schedule) { s.Faults.Recovery = "pray" }),
		"unknown market":         schedule(func(s *Schedule) { s.Market.Preset = "bazaar" }),
		"unknown market kind":    schedule(func(s *Schedule) { s.Market.Market = "futures" }),
		"unknown granularity":    schedule(func(s *Schedule) { s.Market.Granularity = "fortnight" }),
		"missing trace":          schedule(func(s *Schedule) { s.Market.TraceFile = "no-such.txt" }),
		"bad cold start":         schedule(func(s *Schedule) { s.Market.Cold = &Cold{Dist: "cauchy"} }),
		"trace on none":          schedule(func(s *Schedule) { s.Market = Market{Preset: "none", TraceFile: trace} }),
		"no deadline":            &SLA{Template: Template{Name: "order"}},
		"negative samples":       &SLA{Template: Template{Name: "order"}, DeadlineS: 100, Samples: -1},
		"unknown strategy":       &SLA{Template: Template{Name: "order"}, DeadlineS: 100, Strategies: []string{"nope"}},
		"unknown template":       &SLA{Template: Template{Name: "nope"}, DeadlineS: 100},
		"no template":            online(func(o *Online) { o.Template = Template{} }),
		"no interarrival":        online(func(o *Online) { o.InterarrivalS = 0 }),
		"no instances":           online(func(o *Online) { o.Instances = 0 }),
		"negative deadline":      online(func(o *Online) { o.DeadlineS = -1 }),
		"unknown instance type":  online(func(o *Online) { o.Instance = "huge" }),
		"unknown scaler":         online(func(o *Online) { o.Scaler = "psychic" }),
		"unknown dispatch":       online(func(o *Online) { o.Dispatch = "lifo" }),
		"bad mix template":       online(func(o *Online) { o.Template, o.Mix = Template{}, []MixEntry{{Template: Template{File: "x"}}} }),
		"online unknown region":  online(func(o *Online) { o.Region = "mars" }),
		"two workflow sources":   &Compare{Workflow: Workflow{Name: "Montage", Inline: &diamond}},
		"no workflow":            &Compare{},
		"negative builder size":  &Compare{Workflow: Workflow{Builder: "montage", N: -1}},
		"HEFT with AllPar":       &Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Algorithm: "HEFT", Policy: "AllParExceed"}},
		"faults without replay":  &Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"}, Faults: Faults{CrashRate: 1}},
		"negative crash rate":    &Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"}, Simulate: true, Faults: Faults{CrashRate: -1}},
		"seed on none":           &Schedule{Workflow: Workflow{Name: "Montage"}, Strategy: Strategy{Label: "GAIN"}, Market: Market{Preset: "none", Seed: 4}},
		"confidence of one":      &SLA{Template: Template{Name: "order"}, DeadlineS: 100, Confidence: 1},
		"unknown sla market":     &SLA{Template: Template{Name: "order"}, DeadlineS: 100, Markets: []string{"bazaar"}},
		"template and mix":       &Online{Template: Template{Name: "order"}, Mix: []MixEntry{{Template: Template{Name: "order"}}}, InterarrivalS: 1, Instances: 1},
		"negative weight":        &Online{Mix: []MixEntry{{Template: Template{Name: "order"}, Weight: -1}}, InterarrivalS: 1, Instances: 1},
		"inverted pool":          &Online{Template: Template{Name: "order"}, InterarrivalS: 1, Instances: 1, MinVMs: 9, MaxVMs: 4},
		"inline template broken": &SLA{Template: Template{Inline: json.RawMessage(`{"root":{"task":{"work":-1}}}`)}, DeadlineS: 100},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
