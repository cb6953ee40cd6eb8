package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestRunAllTables(t *testing.T) {
	for _, table := range []string{"1", "2", "3", "4", "5", "all", "none"} {
		if err := run(options{seed: 1, table: table}); err != nil {
			t.Errorf("table %s: %v", table, err)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	if err := run(options{seed: 1, table: "9"}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestRunGrid(t *testing.T) {
	if err := run(options{seed: 1, table: "none", grid: true}); err != nil {
		t.Error(err)
	}
}

func TestRunWritesCSVAndGnuplot(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "grid.csv")
	gnuPath := filepath.Join(dir, "fig4.dat")
	if err := run(options{seed: 1, table: "none", csvPath: csvPath, gnuPath: gnuPath}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+4*3*19 {
		t.Errorf("CSV rows = %d", len(rows))
	}
	if data, err := os.ReadFile(gnuPath); err != nil || len(data) == 0 {
		t.Errorf("gnuplot file: %v, %d bytes", err, len(data))
	}
}

func TestRunParanoid(t *testing.T) {
	if err := run(options{seed: 1, table: "none", paranoid: true}); err != nil {
		t.Error(err)
	}
}

func TestRunStabilitySeeds(t *testing.T) {
	if err := run(options{seed: 1, table: "none", seeds: 2}); err != nil {
		t.Error(err)
	}
}

func TestRunExtendedCorpusWithMarkdown(t *testing.T) {
	mdPath := filepath.Join(t.TempDir(), "report.md")
	if err := run(options{seed: 1, table: "4", mdPath: mdPath, extended: true}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Epigenomics", "Inspiral", "CyberShake", "# Sweep results"} {
		if !contains(string(data), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return strings.Contains(s, sub)
}

func TestRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s", "AllParExceed-s"],
	  "workflows": [{"name": "CSTEM"}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", grid: true, confPath: cfgPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", confPath: "/no/such/file.json"}); err == nil {
		t.Error("missing config accepted")
	}
}

func TestRunWritesHTMLReports(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "html")
	if err := run(options{seed: 1, table: "none", htmlDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "montage.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("HTML report has no embedded Gantt")
	}
}

func TestRunWritesLaTeX(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tables.tex")
	if err := run(options{seed: 1, table: "none", texPath: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\\toprule") {
		t.Error("LaTeX output malformed")
	}
}

// TestMain lets a test run the command itself: with SWEEP_MAIN set, the
// test binary is sweep.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep runs the command on a one-cell config with args appended and
// returns its stdout, stderr and exit code.
func sweep(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cfgPath := filepath.Join(t.TempDir(), "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"], "strategies": ["OneVMperTask-s"],
	  "workflows": [{"name": "Sequential"}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-table", "none", "-config", cfgPath}, args...)...)
	cmd.Env = append(os.Environ(), "SWEEP_MAIN=1")
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

func TestFaultConfig(t *testing.T) {
	// The flag defaults inject nothing: no fault model is reported.
	if stdout, stderr, code := sweep(t); code != 0 || strings.Contains(stdout, "fault model") {
		t.Errorf("inactive flags: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	// The preset is the base; explicit flags override its fields.
	stdout, stderr, code := sweep(t, "-fault-scenario", "flaky", "-recovery", "retry", "-fault-seed", "9")
	want := "fault model: faults{crash: 0.05/VM-h, task-fail: 0.01, recovery: retry} (seed 9)"
	if code != 0 || !strings.Contains(stdout, want) {
		t.Errorf("preset+override: exit %d, stderr %q, stdout lacks %q:\n%s", code, stderr, want, stdout)
	}
	for _, args := range [][]string{
		{"-fault-scenario", "no-such-preset"},
		{"-fault-rate", "0.5", "-recovery", "bogus"},
	} {
		if _, stderr, code := sweep(t, args...); code != 1 {
			t.Errorf("%v accepted: exit %d, stderr %q", args, code, stderr)
		}
	}
}

// TestFaultFlagsRejectedUpFront pins the validation order: an invalid
// fault flag fails with the fault model's own message before anything is
// swept or printed, as the service answers 422 for the same values.
func TestFaultFlagsRejectedUpFront(t *testing.T) {
	for flagValue, want := range map[string]string{
		"-fault-rate=-1":   "sweep: fault: negative crash rate -1",
		"-task-fail=1.5":   "sweep: fault: task failure probability 1.5 outside [0, 1]",
		"-preempt-rate=-2": "sweep: fault: negative spot preemption rate -2",
		"-reboot=-3":       "sweep: fault: negative reboot lag -3",
	} {
		stdout, stderr, code := sweep(t, flagValue)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1, no output, %q", flagValue, code, stdout, stderr, want)
		}
	}
}

func TestRunFaultSweep(t *testing.T) {
	faults := spec.Faults{CrashRate: 0.5, TaskFailProb: 0.02, Recovery: "resubmit", RebootS: 60, Seed: 7}
	if err := run(options{seed: 1, table: "none", faults: faults}); err != nil {
		t.Error(err)
	}
}

func TestRunMarketSweep(t *testing.T) {
	faults := spec.Faults{PreemptRate: 1.0, Recovery: "retry", Seed: 7}
	mkt := spec.Market{Preset: "spot-fallback", Seed: 5}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s", "SpotFallback", "WarmPool4"],
	  "workflows": [{"name": "Sequential"}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", confPath: cfgPath,
		paranoid: true, faults: faults, market: mkt}); err != nil {
		t.Error(err)
	}
}

func TestRunWritesTraceAndEvents(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s", "AllParExceed-s"],
	  "workflows": [{"name": "Sequential"}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "sweep.trace.json")
	evPath := filepath.Join(dir, "sweep.ndjson")
	if err := run(options{seed: 1, table: "none", confPath: cfgPath,
		traceOut: tracePath, eventsOut: evPath}); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var docJSON struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &docJSON); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(docJSON.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	// Two cells were swept: the NDJSON stream must carry both markers.
	evData, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(evData), `"cell_start"`); got != 2 {
		t.Fatalf("cell_start markers = %d, want 2", got)
	}
}

func TestProgressMeter(t *testing.T) {
	var sb strings.Builder
	p := newProgressMeter(&sb)
	p.update(1, 4)
	p.update(4, 4)
	out := sb.String()
	if !strings.Contains(out, "1/4") || !strings.Contains(out, "cells/s") {
		t.Fatalf("progress output missing fields: %q", out)
	}
	if !strings.Contains(out, "4 cells in") {
		t.Fatalf("no completion line: %q", out)
	}
}

func TestRunConfigWithSLABlock(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s"], "workflows": [{"name": "Fig1"}],
	  "sla": {"template": "order", "deadline_s": 4000, "confidence": 0.9,
	    "samples": 10, "strategies": ["AllParExceed-l"]}}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", confPath: cfgPath}); err != nil {
		t.Fatal(err)
	}
	// A missed deadline is still a completed sweep: the report carries
	// the verdict, the process does not fail.
	missDoc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s"], "workflows": [{"name": "Fig1"}],
	  "sla": {"template": "order", "deadline_s": 300, "samples": 10,
	    "strategies": ["AllParExceed-l"]}}`
	missPath := filepath.Join(dir, "miss.json")
	if err := os.WriteFile(missPath, []byte(missDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", confPath: missPath}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConfigWithOnlineBlock(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	doc := `{"seed": 3, "scenarios": ["Best case"],
	  "strategies": ["OneVMperTask-s"], "workflows": [{"name": "Fig1"}],
	  "market": {"preset": "ondemand-sec"},
	  "online": {"template": "order", "interarrival_s": 300, "instances": 20,
	    "scaler": "predictive", "deadline_s": 6000}}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{seed: 1, table: "none", confPath: cfgPath}); err != nil {
		t.Fatal(err)
	}
}

func TestProgressLineETA(t *testing.T) {
	cases := []struct {
		name         string
		done, total  int
		elapsed      float64
		want, forbid string
	}{
		{"before first cell", 0, 228, 0.5, "ETA -- ", ""},
		{"zero elapsed", 0, 228, 0, "ETA -- ", ""},
		{"zero total", 0, 0, 1.0, "(0%)", ""},
		{"mid sweep", 114, 228, 10.0, "ETA 10.0s ", ""},
		{"done", 228, 228, 20.0, "ETA 0.0s ", ""},
		{"instant cells", 3, 228, 1e-12, "", ""},
	}
	for _, c := range cases {
		line := progressLine(c.done, c.total, c.elapsed)
		for _, bad := range []string{"Inf", "NaN", "ETA 0.0s "} {
			if bad == "ETA 0.0s " && c.done > 0 {
				// A real (tiny or finished) ETA may round to 0.0s; only a
				// zero-completion ETA is inherently nonsense.
				continue
			}
			if strings.Contains(line, bad) {
				t.Errorf("%s: progressLine(%d, %d, %g) = %q contains %q",
					c.name, c.done, c.total, c.elapsed, line, bad)
			}
		}
		if c.want != "" && !strings.Contains(line, c.want) {
			t.Errorf("%s: progressLine(%d, %d, %g) = %q, want substring %q",
				c.name, c.done, c.total, c.elapsed, line, c.want)
		}
	}
}

func TestProgressMeterFinishLine(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressMeter(&buf)
	p.update(0, 4)
	p.update(4, 4)
	out := buf.String()
	if !strings.Contains(out, "4 cells in") {
		t.Errorf("completion line missing: %q", out)
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("meter output contains non-finite values: %q", out)
	}
}
