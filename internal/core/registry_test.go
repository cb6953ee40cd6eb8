package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/workflows"
)

func TestStrategyByName(t *testing.T) {
	for _, name := range StrategyNames() {
		alg, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("StrategyByName(%q) resolved %q", name, alg.Name())
		}
	}
	if want := len(sched.Catalog()) + len(sched.Hedges()); len(StrategyNames()) != want {
		t.Fatalf("StrategyNames() has %d entries, catalog+hedges %d",
			len(StrategyNames()), want)
	}
	// The catalog keeps its figure order at the front; the hedges append.
	for i, a := range sched.Catalog() {
		if StrategyNames()[i] != a.Name() {
			t.Fatalf("StrategyNames()[%d] = %q, catalog says %q", i, StrategyNames()[i], a.Name())
		}
	}
}

func TestStrategyByNameCaseInsensitive(t *testing.T) {
	alg, err := StrategyByName("allparexceed-m")
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "AllParExceed-m" {
		t.Fatalf("resolved %q", alg.Name())
	}
	if _, err := StrategyByName("NoSuchStrategy"); err == nil {
		t.Fatal("unknown strategy did not error")
	} else if !strings.Contains(err.Error(), "AllParExceed-m") {
		t.Fatalf("error does not list valid names: %v", err)
	}
}

func TestNamedWorkflowDisplayNames(t *testing.T) {
	for _, name := range WorkflowNames() {
		wf, err := NamedWorkflow(name)
		if err != nil {
			t.Fatalf("NamedWorkflow(%q): %v", name, err)
		}
		if wf.Len() == 0 {
			t.Fatalf("NamedWorkflow(%q): empty workflow", name)
		}
	}
	// Case-insensitive display-name lookup.
	wf, err := NamedWorkflow("montage")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wf.Len(), workflows.PaperMontage().Len(); got != want {
		t.Fatalf("montage has %d tasks, want paper's %d", got, want)
	}
}

func TestNamedWorkflowGenerators(t *testing.T) {
	cases := []struct {
		name  string
		tasks int
	}{
		{"montage24", workflows.Montage(24).Len()},
		{"Montage24", workflows.Montage(24).Len()},
		{"mapreduce16x8", workflows.MapReduce(16, 8).Len()},
		{"mapreduce16", workflows.MapReduce(16, 4).Len()},
		{"sequential20", workflows.Sequential(20).Len()},
		{"layered3x4", workflows.Layered(3, 4).Len()},
		{"epigenomics6", workflows.Epigenomics(6).Len()},
		{"inspiral2x5", workflows.Inspiral(2, 5).Len()},
		{"cybershake12", workflows.CyberShake(12).Len()},
		{"cstem", workflows.CSTEM().Len()},
		{"fig1", workflows.Fig1SubWorkflow().Len()},
	}
	for _, c := range cases {
		wf, err := NamedWorkflow(c.name)
		if err != nil {
			t.Fatalf("NamedWorkflow(%q): %v", c.name, err)
		}
		if wf.Len() != c.tasks {
			t.Fatalf("NamedWorkflow(%q): %d tasks, want %d", c.name, wf.Len(), c.tasks)
		}
	}
}

func TestNamedWorkflowErrors(t *testing.T) {
	for _, name := range []string{"", "nosuch", "montage0", "montage1", "cstem7", "mapreduce1x2x3", "sequential-4"} {
		if _, err := NamedWorkflow(name); err == nil {
			t.Fatalf("NamedWorkflow(%q) did not error", name)
		}
	}
}

// TestParseWorkflowNameAgreesWithBuilder pins the build-free parse to the
// names the registry builds: every name it accepts must build the DAG its
// generator builds directly, and every name it rejects must be one
// NamedWorkflow rejects too.
func TestParseWorkflowNameAgreesWithBuilder(t *testing.T) {
	cases := []struct {
		name string
		want *dag.Workflow // nil: rejected
	}{
		{"MONTAGE", workflows.Montage(6)},
		{"cstem", workflows.CSTEM()},
		{"mApReDuCe", workflows.MapReduce(8, 4)},
		{"SEQUENTIAL", workflows.Sequential(10)},
		{"epigenomics", workflows.Epigenomics(4)},
		{"InSpIrAl", workflows.Inspiral(2, 3)},
		{"cybershake", workflows.CyberShake(8)},
		{"FIG1", workflows.Fig1SubWorkflow()},
		{"montage2", workflows.Montage(2)},
		{"Montage24", workflows.Montage(24)},
		{"mapreduce16", workflows.MapReduce(16, 4)},
		{"MapReduce16x8", workflows.MapReduce(16, 8)},
		{"sequential20", workflows.Sequential(20)},
		{"layered", workflows.Layered(3, 4)},
		{"layered5", workflows.Layered(5, 4)},
		{"layered2x7", workflows.Layered(2, 7)},
		{"epigenomics6", workflows.Epigenomics(6)},
		{"inspiral3", workflows.Inspiral(3, 3)},
		{"inspiral2x5", workflows.Inspiral(2, 5)},
		{"CyberShake12", workflows.CyberShake(12)},
		{"", nil},
		{"montage0", nil},
		{"montage1", nil},
		{"cstem4", nil},
		{"mapreduce1x2x3", nil},
		{"mapreduce8x", nil},
		{"foo", nil},
	}
	for _, c := range cases {
		build, err := ParseWorkflowName(c.name)
		wf, nerr := NamedWorkflow(c.name)
		if c.want == nil {
			if err == nil || nerr == nil {
				t.Errorf("%q: parse error %v, NamedWorkflow error %v; want both to reject", c.name, err, nerr)
			}
			continue
		}
		if err != nil || nerr != nil {
			t.Errorf("%q: parse error %v, NamedWorkflow error %v", c.name, err, nerr)
			continue
		}
		if got := build(); !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(wf, c.want) {
			t.Errorf("%q built %s (%d tasks), want %s (%d tasks)", c.name, got.Name, got.Len(), c.want.Name, c.want.Len())
		}
	}
	// Every documented display name and generator parses, and each
	// generator base takes an explicit size but cstem.
	for _, name := range WorkflowNames() {
		if _, err := ParseWorkflowName(strings.ToUpper(name)); err != nil {
			t.Errorf("display name %q: %v", name, err)
		}
	}
	for _, spec := range GeneratorSpecs() {
		base, _, _ := strings.Cut(spec, "[")
		if _, err := ParseWorkflowName(base); err != nil {
			t.Errorf("generator %q: %v", base, err)
		}
		if _, err := ParseWorkflowName(base + "3"); (err == nil) == (base == "cstem") {
			t.Errorf("generator %q with a size: error %v", base, err)
		}
	}
}
