package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// A result file gathers runs made on one machine at one commit:
//
//	{"meta": {...}, "runs": [{"workload": "sweep", "seed": 1, ...}, ...]}
//
// -out appends one run to it; -compare reads two of them.
type resultFile struct {
	Meta runMeta     `json:"meta"`
	Runs []runRecord `json:"runs"`
}

// runMeta describes where the runs of a result file were made.
type runMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// machine identifies the hardware a result file was measured on.
func (m runMeta) machine() string {
	return fmt.Sprintf("%s/%s, %s, nproc %d, GOMAXPROCS %d", m.GOOS, m.GOARCH, m.CPUModel, m.NProc, m.GOMAXPROCS)
}

// runRecord is one run: a workload at a seed, with its wall time.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// currentMeta describes this process's machine and the commit under test.
func currentMeta() runMeta {
	return runMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the commit of the working tree, with a "+dirty" suffix
// when tracked files have uncommitted changes; "unknown" outside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResult adds a run to a result file, creating it if needed. A file
// made on another machine or at another commit is refused, so one file
// never mixes them.
func appendResult(path string, rec runRecord) error {
	meta := currentMeta()
	rf, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = resultFile{Meta: meta}
	case err != nil:
		return err
	case rf.Meta.machine() != meta.machine() || rf.Meta.Commit != meta.Commit:
		return fmt.Errorf("%s holds runs of %s at %s; this run is %s at %s: use another file",
			path, rf.Meta.machine(), rf.Meta.Commit, meta.machine(), meta.Commit)
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json -compare and the smoke test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare prints one row per (workload, end-to-end metric) comparing
// the untraced runs of two result files, pairing runs in file order. It
// exits 1 when a row is worse.
func runCompare(specPath, basePath, changePath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s declares no end-to-end metrics", specPath)
	}
	var base, change resultFile
	if err == nil {
		base, err = readResults(basePath)
	}
	if err == nil {
		change, err = readResults(changePath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %v\n", err)
		return 2
	}
	if base.Meta.machine() != change.Meta.machine() {
		fmt.Fprintf(stderr, "wfbench: refusing to compare runs from different machines:\n  %s: %s\n  %s: %s\n",
			basePath, base.Meta.machine(), changePath, change.Meta.machine())
		return 2
	}
	if base.Meta.GoVersion != change.Meta.GoVersion {
		fmt.Fprintf(stdout, "note: Go versions differ: %s vs %s\n", base.Meta.GoVersion, change.Meta.GoVersion)
	}
	fmt.Fprintf(stdout, "base   %s (%s)\nchange %s (%s)\nmachine %s\n\n",
		basePath, base.Meta.Commit, changePath, change.Meta.Commit, base.Meta.machine())
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\t[q1, q3]\tchange median\t[q1, q3]\tpairs won\tbound\tverdict\t")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := metricValues(base, w.Name, m.Name), metricValues(change, w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			row := compareMetric(b, c, m.Better == "higher", m.Bound)
			if row.verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t[%.5g, %.5g]\t%.5g\t[%.5g, %.5g]\t%d/%d\t%.0f%%\t%s\t\n",
				w.Name, m.Name, row.base[1], row.base[0], row.base[2], row.change[1], row.change[0], row.change[2],
				row.won, row.pairs, m.Bound*100, row.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "wfbench: %v\n", err)
		return 2
	}
	return code
}

// metricValues returns a metric's values over a file's untraced runs of a
// workload, in file order.
func metricValues(rf resultFile, workload, metric string) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		if run.Workload != workload || run.Trace {
			continue
		}
		if v, ok := run.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// comparison is one row of -compare.
type comparison struct {
	base, change [3]float64 // quartiles
	won, pairs   int
	verdict      string
}

// compareMetric judges a change against a base by the benchmark's rules.
// A gain needs at least 9/10 of the pairs won and a median gap larger than
// the base's interquartile range. When either side's spread (interquartile
// range over median) exceeds the bound, the row is unresolved, unless
// every change run reads better than every base run. Otherwise a change
// median worse than the base median by more than the bound is worse, and
// anything else unchanged.
func compareMetric(base, change []float64, higherBetter bool, bound float64) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.change[0], c.change[1], c.change[2] = quartiles(change)
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(base), len(change))
	for i := 0; i < c.pairs; i++ {
		if better(change[i], base[i]) {
			c.won++
		}
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / q[1]
	}
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	gap := c.change[1] - c.base[1]
	if !higherBetter {
		gap = -gap
	}
	worse := -gap > bound*c.base[1]
	switch {
	case c.pairs > 0 && 10*c.won >= 9*c.pairs && gap > c.base[2]-c.base[0]:
		c.verdict = "improved"
	case max(spread(c.base), spread(c.change)) > bound && !allBetter:
		c.verdict = "unresolved"
	case worse:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}
