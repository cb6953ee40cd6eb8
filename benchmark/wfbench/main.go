// Command wfbench is the repository's end-to-end benchmark. It drives the
// paper grid (internal/core), the deadline search (internal/sla), the
// autoscaling stream (internal/online) and the scheduling service
// (internal/service, over loopback HTTP) through their public entry
// points, checks their outputs, and prints every end-to-end metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of the repository, through benchmark/run.sh:
//
//	bash benchmark/run.sh -workload sweep -seed 1 -seconds 28
//	bash benchmark/run.sh -workload all -seed 1 -out base.json
//	bash benchmark/run.sh -workload sweep -trace 1 -trace-dir out/
//	bash benchmark/run.sh -compare base.json change.json
//
// -trace 1 replaces the end-to-end run by the traced per-layer run, which
// covers every layer whatever -workload names (see trace.go). The exit
// code is 0 only when every operation succeeded and every output check
// passed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// processStart anchors the trace clock.
var processStart = time.Now()

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"sweep", "sla", "online", "service"}

// options are the parsed command-line flags of one run.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	traceDir     string
	out          string
	expectDir    string
	updateExpect bool
}

func main() {
	if os.Getenv(roleEnv) == roleReference {
		os.Exit(serveReference(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams passed in, so the
// smoke test can call it in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "sweep, sla, online, service, or all (each in a fresh process)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 28, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run of every layer instead of the end-to-end run")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes wfbench.trace.json to")
	fs.StringVar(&o.out, "out", "", "append this run's result to the given result file")
	fs.StringVar(&o.expectDir, "expect", filepath.Join("benchmark", "expect"), "directory of committed output digests, one seed<N>.json per seed")
	fs.BoolVar(&o.updateExpect, "update-expect", false, "record this run's output digests in the expect file instead of checking them")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json change.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "wfbench: -compare needs two result files")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "wfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		fmt.Fprintf(stderr, "wfbench: -trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		fmt.Fprintf(stderr, "wfbench: -seconds must be positive, not %v\n", o.seconds)
		return 2
	}
	if o.workload != "all" && workloadFunc(o.workload) == nil {
		fmt.Fprintf(stderr, "wfbench: unknown workload %q (valid: all, sweep, sla, online, service)\n", o.workload)
		return 2
	}
	if o.workload == "all" && !o.trace {
		return runAll(o, stdout, stderr)
	}

	start := time.Now()
	r := newReport(stdout)
	var err error
	if o.trace {
		err = runTrace(&o, r)
	} else {
		err = timed(func(sp *speed) error { return workloadFunc(o.workload)(&o, r, sp) })
		if err == nil {
			err = checkExpect(&o, r)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res := r.result()
	r.note("error_frac %.4g: %d of %d operations failed", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Failed, res.Attempted)
	r.printFailures(stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if o.out != "" {
		rec := runRecord{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			WallS: time.Since(start).Seconds(), Result: res}
		if err := appendResult(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "wfbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadFunc returns the end-to-end run of a workload, nil for an
// unknown name.
func workloadFunc(name string) func(*options, *report, *speed) error {
	switch name {
	case "sweep":
		return runSweep
	case "sla":
		return runSLA
	case "online":
		return runOnline
	case "service":
		return runService
	}
	return nil
}

// runAll re-executes this binary once per workload, so that heap state
// from one workload cannot leak into the next, and gathers the results.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "wfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		args := []string{"-workload", w, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-expect", o.expectDir}
		if o.updateExpect {
			args = append(args, "-update-expect")
		}
		fmt.Fprintf(stdout, "== %s\n", w)
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		start := time.Now()
		runErr := cmd.Run()
		wall := time.Since(start).Seconds()
		res, perr := lastResult(buf.Bytes())
		if runErr != nil || perr != nil {
			fmt.Fprintf(stderr, "wfbench: workload %s failed: %v\n", w, errors.Join(runErr, perr))
			code = 1
			if perr != nil {
				continue
			}
		}
		if o.out != "" {
			rec := runRecord{Workload: w, Seed: o.seed, Seconds: o.seconds, WallS: wall, Result: res}
			if err := appendResult(o.out, rec); err != nil {
				fmt.Fprintf(stderr, "wfbench: %v\n", err)
				return 1
			}
		}
	}
	return code
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operation counts, metrics, output digests
// and failures, and prints each metric as it is added.
type report struct {
	out       io.Writer
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metricValue
	// digests holds the output digests of the run, keyed by what they
	// cover ("sweep/grid/0"); weights the operations each one stands for.
	digests map[string]string
	weights map[string]int
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metricValue{},
		digests: map[string]string{}, weights: map[string]int{}}
}

// fail counts n failed operations and keeps the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// add records one reported metric. A value that is not finite would not
// encode as JSON; it is reported as a failure instead.
func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail(1, "metric %s is %v", name, value)
		value = 0
	}
	r.metrics[name] = metricValue{Value: value, Unit: unit}
	fmt.Fprintf(r.out, "%-40s %14.6g %s\n", name, value, unit)
}

// note prints a diagnostic line that is not a reported metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// digest records an output digest standing for weight operations.
func (r *report) digest(key, hex string, weight int) {
	r.digests[key] = hex
	r.weights[key] = weight
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// printFailures writes the first few failure reasons.
func (r *report) printFailures(w io.Writer) {
	for i, f := range r.failures {
		if i == 10 {
			fmt.Fprintf(w, "wfbench: ... and %d more failures\n", len(r.failures)-i)
			return
		}
		fmt.Fprintf(w, "wfbench: failed: %s\n", f)
	}
}

// unit is one timed unit of a phase: an operation, or a run or a segment
// of them.
type unit struct {
	secs float64 // seconds it took
	ops  int     // operations it verified
	mark int     // its speed mark
}

// e2e gathers what one workload measured for the end-to-end metrics.
type e2e struct {
	setups []unit // the set-up repetitions
	// work holds the units throughput counts over; lat the latency
	// samples; missLat those of operations no cache answered, which on the
	// workloads without a cache is every operation.
	work, lat, missLat []unit
	speed              *speed
	peakLive           uint64 // bytes
}

// addEndToEnd reports the end-to-end metrics, in BENCHMARK.json's order,
// at the reference machine's speed, and prints the raw values.
func (r *report) addEndToEnd(m e2e) error {
	sp := m.speed
	if sp.err != nil {
		return sp.err
	}
	ops, rawS, scaledS := 0, 0.0, 0.0
	for _, u := range m.work {
		ops += u.ops
		rawS += u.secs
		scaledS += u.secs * sp.scaleAt(u.mark)
	}
	seconds := func(us []unit, scaled bool) []float64 {
		out := make([]float64, len(us))
		for i, u := range us {
			out[i] = u.secs
			if scaled {
				out[i] *= sp.scaleAt(u.mark)
			}
		}
		sort.Float64s(out)
		return out
	}
	// Latency p50, p90, miss p50 and miss p90, scaled and raw, in seconds.
	quantiles := func(scaled bool) [4]float64 {
		lat, miss := seconds(m.lat, scaled), seconds(m.missLat, scaled)
		return [4]float64{quantile(lat, 0.5), quantile(lat, 0.9), quantile(miss, 0.5), quantile(miss, 0.9)}
	}
	q, raw := quantiles(true), quantiles(false)
	r.add("setup_s", quantile(seconds(m.setups, true), 0.5), "s")
	r.add("ops_per_s", float64(ops)/scaledS, "op/s")
	r.add("latency_p50_ms", q[0]*1e3, "ms")
	r.add("latency_p90_ms", q[1]*1e3, "ms")
	r.add("miss_latency_p50_ms", q[2]*1e3, "ms")
	r.add("miss_latency_p90_ms", q[3]*1e3, "ms")
	r.add("peak_live_heap_mb", float64(m.peakLive)/(1<<20), "MiB")
	r.note("speed index %.4g of nominal over %d checkpoints (quartiles %.4g, %.4g)", median(sp.rates)/refNominal,
		len(sp.rates), quantileOf(sp.rates, 0.25)/refNominal, quantileOf(sp.rates, 0.75)/refNominal)
	r.note("raw: setup_s=%.6g ops_per_s=%.6g latency_p50_ms=%.6g latency_p90_ms=%.6g miss_latency_p50_ms=%.6g miss_latency_p90_ms=%.6g",
		quantile(seconds(m.setups, false), 0.5), float64(ops)/rawS, raw[0]*1e3, raw[1]*1e3, raw[2]*1e3, raw[3]*1e3)
	r.note("samples: %d latency, %d miss latency; raw latency p99 %.4g ms", len(m.lat), len(m.missLat),
		quantile(seconds(m.lat, false), 0.99)*1e3)
	return nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 9

// repeatSetup runs setup setupReps times, each between two speed
// checkpoints, and returns the repetitions. The state the last repetition
// leaves behind is what the workload measures.
func repeatSetup(sp *speed, setup func() error) ([]unit, error) {
	out := make([]unit, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		mark := sp.mark()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, unit{secs: time.Since(start).Seconds(), mark: mark})
		sp.checkpoint()
	}
	return out, nil
}

// timed runs a workload's end-to-end measurement with a speed index, and
// stops the reference process after it.
func timed(measure func(sp *speed) error) error {
	sp, err := newSpeed()
	if err != nil {
		return err
	}
	return errors.Join(measure(sp), sp.close())
}

// duration converts seconds to a time.Duration.
func duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
