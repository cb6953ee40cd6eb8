package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds runs each workload at about 1% of its measured seconds.
const smokeSeconds = "0.2"

var (
	specFile  = filepath.Join("..", "..", "BENCHMARK.json")
	expectDir = filepath.Join("..", "expect")
)

// TestMain lets the test binary serve as the reference process the speed
// index starts, as the wfbench binary does.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == roleReference {
		os.Exit(serveReference(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// runCapture runs wfbench in process and parses its result line.
func runCapture(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run(args, &out, &errs)
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("wfbench %s: %v (exit %d)\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), err, code, out.String(), errs.String())
	}
	if code != 0 {
		t.Logf("stderr:\n%s", errs.String())
	}
	return res, code
}

// checkMetrics asserts that a result reports exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, res result, declared map[string]string) {
	t.Helper()
	for name, unit := range declared {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not reported", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("metric %s reported but not declared in BENCHMARK.json", name)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, code := runCapture(t, "-workload", w.Name, "-seconds", smokeSeconds, "-expect", expectDir)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, correct %v, %d of %d operations failed", code, res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, declared)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want positive", name, m.Value)
				}
			}
		})
	}
}

func TestTraceWritesChromeTrace(t *testing.T) {
	spec, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	dir := t.TempDir()
	res, code := runCapture(t, "-workload", "sweep", "-trace", "1", "-seconds", smokeSeconds, "-trace-dir", dir)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, correct %v, %d of %d operations failed", code, res.Correct, res.Failed, res.Attempted)
	}
	checkMetrics(t, res, declared)

	data, err := os.ReadFile(filepath.Join(dir, traceFile))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("malformed trace event %+v", ev)
		}
		if ev.Ph == "X" {
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("malformed complete event %q", ev.Name)
			}
			spans[layerOf(ev.Name)] = true
		}
	}
	for _, want := range []string{"core.Run", "cell", "sla.Search", "candidate", "online.Run", "client.hit", "cache_lookup"} {
		if !spans[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

func TestTamperedDigestFailsTheRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(expectDir, "seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	const key = "sweep/grid/0"
	if want[key] == "" {
		t.Fatalf("seed1.json has no %s digest", key)
	}
	want[key] = strings.Repeat("0", len(want[key]))
	dir := t.TempDir()
	tampered, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seed1.json"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	res, code := runCapture(t, "-workload", "sweep", "-seconds", smokeSeconds, "-expect", dir)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("tampered digest: exit %d, correct %v, %d failed; want a failing run", code, res.Correct, res.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) and
	// statistics.quantiles([3, 1, 2], n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"same", base, true, "unchanged"},
		{"faster", shift(10), true, "improved"},
		{"slower within bound", shift(-5), true, "unchanged"},
		{"slower beyond bound", shift(-20), true, "worse"},
		{"lower is better", shift(-10), false, "improved"},
		{"too noisy", noisy, true, "unresolved"},
	} {
		if got := compareMetric(base, c.change, c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, meta runMeta) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(resultFile{Meta: meta})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	meta := currentMeta()
	base := write("base.json", meta)
	meta.CPUModel += " (another)"
	other := write("other.json", meta)
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", "-spec", specFile, base, other}, &out, &errs); code == 0 ||
		!strings.Contains(errs.String(), "different machines") {
		t.Fatalf("exit %d, stderr %q; want a refusal", code, errs.String())
	}
}
