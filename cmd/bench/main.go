// Command bench converts `go test -bench` output into the repository's
// BENCH_sweep.json performance artifact and gates regressions against a
// committed baseline.
//
// It reads standard `go test -bench -benchmem` text on stdin, e.g.
//
//	BenchmarkFullParanoidSweep-8   193   12302648 ns/op   7218880 B/op   67048 allocs/op
//
// and writes a JSON document keyed by benchmark name with ns/op, B/op and
// allocs/op, plus derived cells/s for the full-sweep benchmark (the paper
// grid is 228 cells: 4 workflows x 3 scenarios x 19 strategies).
//
// With -against it additionally loads a previously committed artifact and
// exits nonzero when any row of the gate table regressed by more than
// its tolerance: a row names a benchmark, one of its metrics, the
// direction in which that metric improves, and the fraction it may
// worsen by — the CI gate of scripts/bench.sh.
//
// With -emit it renders a stored artifact back into `go test -bench` text
// so benchstat can diff a committed baseline against a fresh run without
// re-running the old code.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | bench -out BENCH_sweep.json
//	go test -run '^$' -bench . -benchmem . | bench -against BENCH_sweep.json
//	bench -emit BENCH_sweep.json > old.txt
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sweepBench is the end-to-end sweep benchmark and sweepCells its grid
// size; onlineBench is the continuous-traffic soak and
// onlineBenchInstances mirrors onlineSoakInstances in bench_test.go. Both
// derive a throughput the gate watches.
const (
	sweepBench           = "FullParanoidSweep"
	sweepCells           = 228
	onlineBench          = "OnlineSoak"
	onlineBenchInstances = 10_000
)

// gateRow is one row of the regression gate: a benchmark's metric, the
// direction in which it improves, and the fractional regression the gate
// tolerates against the baseline.
type gateRow struct {
	bench, metric string
	higher        bool
	tol           float64
}

// gates is the gate table. The sweep headline can mask a replay
// regression hidden behind scheduler wins, so the single-cell SimReplay
// latency has its own row; the OnlineSoak rows watch the streaming
// harness, and the TemplateSample rows the sampling layer under it, which
// builds most of its allocations; the service rows watch the /v1/schedule
// cache hit, whose cost must stay far below the planning it saves, and
// the cold request, whose allocations count the workflow it builds; the
// SLASearch rows watch the deadline portfolio search, whose allocations
// count the DAGs it samples; the ScheduleGain row watches one GAIN
// schedule, the upgrade loop under both budget-limited algorithms. Hosted
// runners are noisy, hence the wide tolerances.
var gates = []gateRow{
	{sweepBench, "cells/s", true, 0.20},
	{"SimReplay", "ns/op", false, 0.20},
	{onlineBench, "instances/s", true, 0.20},
	{onlineBench, "allocs/op", false, 0.20},
	{"TemplateSample", "ns/op", false, 0.20},
	{"TemplateSample", "allocs/op", false, 0.20},
	{"ServiceScheduleCached", "ns/op", false, 0.20},
	{"ServiceScheduleCached", "allocs/op", false, 0.20},
	{"ServiceScheduleCold", "ns/op", false, 0.20},
	{"ServiceScheduleCold", "allocs/op", false, 0.20},
	{"SLASearch", "ns/op", false, 0.20},
	{"SLASearch", "allocs/op", false, 0.20},
	{"ScheduleGain", "ns/op", false, 0.20},
}

// Bench is one measured benchmark.
type Bench struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CellsPerSec is only set for the full-sweep benchmark: grid cells
	// scheduled (and paranoia-checked) per second.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// InstancesPerSec is only set for the online soak benchmark: workflow
	// instances streamed through the autoscaling harness per second.
	InstancesPerSec float64 `json:"instances_per_sec,omitempty"`
}

// value returns the named metric of the benchmark; 0 when it was not
// measured.
func (b Bench) value(metric string) float64 {
	switch metric {
	case "ns/op":
		return b.NsPerOp
	case "allocs/op":
		return b.AllocsPerOp
	case "cells/s":
		return b.CellsPerSec
	case "instances/s":
		return b.InstancesPerSec
	}
	return 0
}

// Artifact is the BENCH_sweep.json schema.
type Artifact struct {
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func parse(lines *bufio.Scanner) (map[string]Bench, error) {
	out := map[string]Bench{}
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("bench: bad iteration count in %q", lines.Text())
		}
		b := Bench{Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad value %q in %q", fields[i], lines.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		name := m[1]
		// Sub-benchmarks keep their slash-joined names verbatim.
		if name == sweepBench && b.NsPerOp > 0 {
			b.CellsPerSec = sweepCells / (b.NsPerOp / 1e9)
		}
		if name == onlineBench && b.NsPerOp > 0 {
			b.InstancesPerSec = onlineBenchInstances / (b.NsPerOp / 1e9)
		}
		out[name] = b
	}
	return out, lines.Err()
}

func main() {
	var (
		out     = flag.String("out", "", "write the JSON artifact to this path ('-' for stdout)")
		against = flag.String("against", "", "baseline artifact to gate the run against")
		emit    = flag.String("emit", "", "render this stored artifact as `go test -bench` text and exit")
	)
	flag.Parse()

	if *emit != "" {
		if err := emitBenchText(*emit); err != nil {
			fatal(err)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	benches, err := parse(sc)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("bench: no benchmark lines on stdin (pipe `go test -bench -benchmem` output)"))
	}
	art := Artifact{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benches,
	}

	if *out != "" {
		buf, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *out == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
	}

	if *against != "" {
		if err := gate(art, *against); err != nil {
			fatal(err)
		}
	}
}

// gate checks the run against the baseline artifact, row by row of the
// gate table, and errors on every regression beyond a row's tolerance. A
// row whose metric the baseline does not record is skipped, so an older
// baseline gates what it can; one that records none of them is an error.
func gate(art Artifact, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Artifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline %s: %w", path, err)
	}
	var errs []error
	checked := 0
	for _, g := range gates {
		want := base.Benchmarks[g.bench].value(g.metric)
		if want <= 0 {
			continue
		}
		checked++
		got := art.Benchmarks[g.bench].value(g.metric)
		if got <= 0 {
			errs = append(errs, fmt.Errorf("bench: this run has no %s %s to compare", g.bench, g.metric))
			continue
		}
		limit, bound := want*(1+g.tol), "ceiling"
		if g.higher {
			limit, bound = want*(1-g.tol), "floor"
		}
		fmt.Fprintf(os.Stderr, "bench: %s %.0f %s vs baseline %.0f (%s %.0f)\n",
			g.bench, got, g.metric, want, bound, limit)
		if g.higher && got < limit || !g.higher && got > limit {
			errs = append(errs, fmt.Errorf("bench: %s regressed: %.0f %s past its %s %.0f (baseline %.0f, tolerance %.0f%%)",
				g.bench, got, g.metric, bound, limit, want, g.tol*100))
		}
	}
	if checked == 0 {
		return fmt.Errorf("bench: baseline %s records none of the gated metrics", path)
	}
	return errors.Join(errs...)
}

// emitBenchText renders a stored artifact back into `go test -bench
// -benchmem` text (sorted by name), the input format benchstat consumes,
// so CI can diff the committed baseline against a fresh run.
func emitBenchText(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var art Artifact
	if err := json.Unmarshal(raw, &art); err != nil {
		return fmt.Errorf("bench: parsing artifact %s: %w", path, err)
	}
	fmt.Printf("goos: %s\ngoarch: %s\n", art.GOOS, art.GOARCH)
	names := make([]string, 0, len(art.Benchmarks))
	for name := range art.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := art.Benchmarks[name]
		fmt.Printf("Benchmark%s %d %.0f ns/op %.0f B/op %.0f allocs/op\n",
			name, b.Iterations, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
