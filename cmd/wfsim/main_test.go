package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/spec"
)

func TestRunBuiltinWorkflows(t *testing.T) {
	for _, wf := range []string{"Montage", "CSTEM", "MapReduce", "Sequential", "Fig1"} {
		if err := run(wf, "AllParExceed-s", "Pareto", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{}); err != nil {
			t.Errorf("%s: %v", wf, err)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	for _, sc := range []string{"Pareto", "Best case", "Worst case", "none"} {
		if err := run("CSTEM", "OneVMperTask-s", sc, 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{}); err != nil {
			t.Errorf("%s: %v", sc, err)
		}
	}
}

func TestRunWithBootTime(t *testing.T) {
	if err := run("Sequential", "StartParExceed-s", "Best case", 1, "eu-dublin", 120, true, "", "", "", "", spec.Faults{}, spec.Market{}); err != nil {
		t.Error(err)
	}
}

func TestRunWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.svg")
	if err := run("Fig1", "AllParNotExceed-s", "none", 1, "us-east-virginia", 0, false, path, "", "", "", spec.Faults{}, spec.Market{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty SVG file")
	}
}

func TestRunJSONWorkflowFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.json")
	doc := `{"name": "mini", "tasks": [{"name":"a","work":100},{"name":"b","work":200}],
	  "edges": [{"from":0,"to":1}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "GAIN", "none", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{}); err != nil {
		t.Error(err)
	}
}

func TestRunDAXWorkflowFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.dax")
	doc := `<adag name="mini">
	  <job id="a" name="a" runtime="100"/>
	  <job id="b" name="b" runtime="200"/>
	  <child ref="b"><parent ref="a"/></child>
	</adag>`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "CPA-Eager", "none", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{}); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]func() error{
		"unknown workflow": func() error {
			return run("NoSuchThing", "GAIN", "none", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{})
		},
		"unknown strategy": func() error {
			return run("CSTEM", "Bogus", "none", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{})
		},
		"unknown scenario": func() error {
			return run("CSTEM", "GAIN", "Median case", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{})
		},
		"unknown region": func() error {
			return run("CSTEM", "GAIN", "none", 1, "mars", 0, false, "", "", "", "", spec.Faults{}, spec.Market{})
		},
	}
	for name, f := range cases {
		if f() == nil {
			t.Errorf("%s: succeeded", name)
		}
	}

	// An argument spelled as a path is a file, so a missing one reports
	// its open error, not an unknown registry name.
	missing := filepath.Join(t.TempDir(), "nope", "missing.json")
	for name, err := range map[string]error{
		"missing workflow file": run("missing.json", "GAIN", "none", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{}),
		"missing template file": runSLA(missing, "", false, 100, 0.95, 5, 1, "us-east-virginia", "", spec.Faults{}, false),
	} {
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: err %v, want the file's open error", name, err)
		}
	}
}

func TestRunWritesTraceCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run("Fig1", "AllParExceed-s", "none", 1, "us-east-virginia", 0, false, "", path, "", "", spec.Faults{}, spec.Market{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty trace CSV")
	}
}

func TestRunWritesTraceAndEvents(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	evPath := filepath.Join(dir, "run.ndjson")
	if err := run("Montage", "AllParExceed-s", "Pareto", 1, "us-east-virginia", 0, false, "", "", tracePath, evPath, spec.Faults{}, spec.Market{}); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace output has no events")
	}
	evData, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(evData)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("NDJSON line %d invalid: %v", i+1, err)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	faults := spec.Faults{CrashRate: 0.5, TaskFailProb: 0.05, Recovery: "resubmit", RebootS: 30, Seed: 7}
	if err := run("Montage", "OneVMperTask-s", "Pareto", 1, "us-east-virginia", 0, false, "", "", "", "", faults, spec.Market{}); err != nil {
		t.Error(err)
	}
	// The fail policy may abort the run; that is still a successful report.
	failFast := spec.Faults{TaskFailProb: 1, Recovery: "fail", Seed: 7}
	if err := run("Sequential", "OneVMperTask-s", "Best case", 1, "us-east-virginia", 0, false, "", "", "", "", failFast, spec.Market{}); err != nil {
		t.Error(err)
	}
}

func TestRunWithMarket(t *testing.T) {
	for _, preset := range []string{"spot", "warm", "ondemand-sec"} {
		// Fault-free market runs still pass the simulator cross-check.
		if err := run("Montage", "SpotFallback", "Pareto", 1, "us-east-virginia", 0, false, "", "", "", "", spec.Faults{}, spec.Market{Preset: preset}); err != nil {
			t.Errorf("%s: %v", preset, err)
		}
	}
	// Preempting spot leases fall back on-demand under SpotFallback.
	faults := spec.Faults{PreemptRate: 2, Recovery: "retry", Seed: 3}
	if err := run("Montage", "SpotFallback", "Pareto", 1, "us-east-virginia", 0, false, "", "", "", "", faults, spec.Market{Preset: "spot-fallback"}); err != nil {
		t.Error(err)
	}
}

// TestMain lets a test run the command itself: with WFSIM_MAIN set, the
// test binary is wfsim.
func TestMain(m *testing.M) {
	if os.Getenv("WFSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wfsim runs the command with args and returns its stdout, stderr and
// exit code.
func wfsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WFSIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestMarketModelFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-market-seed", "5"}, // a seed without a preset
		{"-market", "bazaar"}, // an unknown preset
		{"-market", "none", "-market-seed", "5"},
	} {
		if _, stderr, code := wfsim(t, append([]string{"-wf", "Sequential", "-gantt=false"}, args...)...); code != 1 {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
	}
	stdout, stderr, code := wfsim(t, "-wf", "Sequential", "-gantt=false", "-market", "spot", "-market-seed", "9")
	if code != 0 || !strings.Contains(stdout, "market     market{spot/") {
		t.Fatalf("spot preset with seed override: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if base, _ := market.Preset("spot"); base.Seed == 9 {
		t.Fatal("seed override mutated the shared preset")
	}
}

// TestFaultFlagsRejectedUpFront pins the validation order: an invalid
// fault flag fails with the fault model's own message before anything is
// scheduled or printed, as the service answers 422 for the same values.
func TestFaultFlagsRejectedUpFront(t *testing.T) {
	for flagValue, want := range map[string]string{
		"-fault-rate=-1":   "wfsim: fault: negative crash rate -1",
		"-task-fail=1.5":   "wfsim: fault: task failure probability 1.5 outside [0, 1]",
		"-preempt-rate=-2": "wfsim: fault: negative spot preemption rate -2",
		"-recovery=pray":   "wfsim: fault: unknown recovery policy",
	} {
		stdout, stderr, code := wfsim(t, "-wf", "Montage", "-strategy", "GAIN", flagValue)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, no output, %q", flagValue, code, stdout, stderr, want)
		}
	}
}

func TestRunSLANamedTemplate(t *testing.T) {
	// Generous deadline: the full portfolio search succeeds and selects.
	if err := runSLA("order", "", false, 4000, 0.9, 20, 7, "us-east-virginia", "", spec.Faults{}, false); err != nil {
		t.Error(err)
	}
}

func TestRunSLARestrictedStrategyAndMarket(t *testing.T) {
	if err := runSLA("order", "allparexceed-l", true, 4000, 0.9, 10, 7, "us-east-virginia", "ondemand-min", spec.Faults{}, false); err != nil {
		t.Error(err)
	}
}

func TestRunSLAMissExitsWithError(t *testing.T) {
	// A deadline below the certain minimum: pruned everywhere, reported
	// as an error so the process exits non-zero.
	if err := runSLA("order", "", false, 100, 0.95, 10, 7, "us-east-virginia", "", spec.Faults{}, false); err == nil {
		t.Error("impossible deadline reported as met")
	}
}

func TestRunSLATemplateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tpl.json")
	doc := `{"name":"tiny","root":{"seq":[{"task":{"name":"a","work":100}},
	  {"loop":{"body":{"task":{"name":"b","work":200}},"repeat":0.3,"max":2}}]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSLA(path, "", false, 5000, 0.9, 10, 1, "us-east-virginia", "", spec.Faults{}, false); err != nil {
		t.Error(err)
	}
}

func TestRunSLABadInputs(t *testing.T) {
	if err := runSLA("no-such-template", "", false, 100, 0.95, 5, 1, "us-east-virginia", "", spec.Faults{}, false); err == nil {
		t.Error("unknown template accepted")
	}
	if err := runSLA("order", "", false, 100, 0.95, 5, 1, "us-east-virginia", "bazaar", spec.Faults{}, false); err == nil {
		t.Error("unknown market preset accepted")
	}
	if err := runSLA("order", "nope", true, 100, 0.95, 5, 1, "us-east-virginia", "", spec.Faults{}, false); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := runSLA("order", "", false, 100, 0.95, 5, 1, "moonbase", "", spec.Faults{}, false); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestRunSLAExplain(t *testing.T) {
	// -explain path: the decision audit renders after the report.
	if err := runSLA("order", "", false, 4000, 0.9, 10, 7, "us-east-virginia", "", spec.Faults{}, true); err != nil {
		t.Error(err)
	}
}
