// Command sweep runs the paper's full evaluation grid — four workflows,
// three execution-time scenarios, nineteen strategies — and prints the
// requested tables, or dumps the raw grid as CSV/gnuplot data.
//
// Usage:
//
//	sweep -table all
//	sweep -table 3 -seed 7
//	sweep -csv results.csv -gnuplot fig4.dat -paranoid
//	sweep -table none -progress -trace-out sweep.trace.json
//
// -trace-out writes a Chrome trace-event JSON timeline (open in Perfetto)
// with two views in one file: the wall-clock execution of the sweep (one
// track per worker, one span per grid cell) and the simulated replay of
// every cell (one process per cell, one track per VM lease). -events-out
// writes the raw per-cell event streams as NDJSON; the stream is
// byte-identical at any worker count. -progress reports live cells/sec
// and an ETA on stderr.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expconf"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/report"
	"repro/internal/sla"
	"repro/internal/spec"
	"repro/internal/workflows"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "seed for the Pareto workload")
		table    = flag.String("table", "all", "table to print: 1, 2, 3, 4, 5, all, or none")
		csvPath  = flag.String("csv", "", "write the full grid as CSV to this file")
		gnuPath  = flag.String("gnuplot", "", "write Fig. 4 gnuplot data blocks to this file")
		paranoid = flag.Bool("paranoid", false, "validate and re-simulate every schedule")
		grid     = flag.Bool("grid", false, "print the raw result grid")
		seeds    = flag.Int("seeds", 0, "additionally run a stability analysis across this many Pareto seeds")
		mdPath   = flag.String("md", "", "write the full grid as a markdown report to this file")
		extended = flag.Bool("extended", false, "sweep the extended 7-workflow corpus (adds Epigenomics, Inspiral, CyberShake)")
		confPath = flag.String("config", "", "JSON experiment description (see internal/expconf); overrides -seed/-extended")
		htmlDir  = flag.String("html", "", "write one self-contained HTML report per workflow into this directory")
		texPath  = flag.String("latex", "", "write the grid as booktabs LaTeX tables to this file")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline (Perfetto) to this file")
		evOut    = flag.String("events-out", "", "write the per-cell simulated event streams as NDJSON to this file")
		progress = flag.Bool("progress", false, "report live sweep progress (cells/sec, ETA) on stderr")

		faultPreset = flag.String("fault-scenario", "", "named fault preset: "+strings.Join(fault.PresetNames(), ", "))
		faultRate   = flag.Float64("fault-rate", 0, "VM crash rate per VM-hour (0 = perfect cloud)")
		taskFail    = flag.Float64("task-fail", 0, "per-attempt transient task failure probability")
		recovery    = flag.String("recovery", "", "recovery policy under faults: retry, resubmit, or fail")
		rebootS     = flag.Float64("reboot", 0, "boot lag of replacement VMs in seconds")
		faultSeed   = flag.Uint64("fault-seed", 1, "base seed for the fault draws")

		marketPreset = flag.String("market", "", "market preset pricing every lease: "+strings.Join(market.PresetNames(), ", ")+" (empty = paper economics)")
		marketSeed   = flag.Uint64("market-seed", 0, "override the market preset's cold-start draw seed")
		preemptRate  = flag.Float64("preempt-rate", 0, "spot reclamations per spot-VM-hour (only bites spot leases)")
	)
	flag.Parse()

	opts := options{
		seed: *seed, table: *table, csvPath: *csvPath, gnuPath: *gnuPath,
		paranoid: *paranoid, grid: *grid, seeds: *seeds, mdPath: *mdPath,
		extended: *extended, confPath: *confPath, htmlDir: *htmlDir,
		texPath: *texPath, traceOut: *traceOut, eventsOut: *evOut,
		progress: *progress,
		// The preset is the base; explicit flags override its fields.
		faults: spec.Faults{Preset: *faultPreset, CrashRate: *faultRate, PreemptRate: *preemptRate,
			TaskFailProb: *taskFail, Recovery: *recovery, RebootS: *rebootS, Seed: *faultSeed},
		// An empty -market is the paper's economics, which takes no
		// -market-seed.
		market: spec.Market{Preset: cmp.Or(*marketPreset, "none"), Seed: *marketSeed},
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// options gathers the CLI surface of one sweep invocation.
type options struct {
	seed                uint64
	table               string
	csvPath, gnuPath    string
	paranoid, grid      bool
	seeds               int
	mdPath              string
	extended            bool
	confPath            string
	htmlDir, texPath    string
	traceOut, eventsOut string
	progress            bool
	faults              spec.Faults
	market              spec.Market
}

// run validates the fault and market flags before anything else, then
// sweeps.
func run(o options) error {
	if err := o.faults.Validate(); err != nil {
		return err
	}
	if err := o.market.Validate(); err != nil {
		return err
	}
	cfg := core.Config{Seed: o.seed, Paranoid: o.paranoid}
	if o.extended {
		cfg.Workflows = workflows.Extended()
		cfg.WorkflowOrder = workflows.ExtendedNames()
	}
	if o.confPath != "" {
		var err error
		if cfg, err = expconf.LoadFile(o.confPath); err != nil {
			return err
		}
	}
	if faults := o.faults.Value(); faults != nil {
		// CLI fault flags override any config-file fault block.
		cfg.Faults = faults
	}
	if mkt := o.market.Value(); mkt != nil {
		// The CLI market preset overrides any config-file market block.
		cfg.Market = mkt
	}
	var col *obs.Collector
	if o.traceOut != "" || o.eventsOut != "" {
		col = &obs.Collector{}
		cfg.Recorder = col
	}
	if o.progress {
		cfg.Progress = newProgressMeter(os.Stderr).update
	}
	s, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := writeArtifact(o.traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, col.Events, s.CellSpans)
		}); err != nil {
			return err
		}
	}
	if o.eventsOut != "" {
		if err := writeArtifact(o.eventsOut, func(w io.Writer) error {
			return obs.WriteNDJSON(w, col.Events)
		}); err != nil {
			return err
		}
	}

	switch o.table {
	case "1":
		fmt.Println(report.Table1())
	case "2":
		fmt.Println(report.Table2())
	case "3":
		fmt.Println(report.Table3(s))
	case "4":
		fmt.Println(report.Table4(s))
	case "5":
		t5, err := report.Table5(s)
		if err != nil {
			return err
		}
		fmt.Println(t5)
	case "all":
		fmt.Println(report.Table1())
		fmt.Println(report.Table2())
		fmt.Println(report.Table3(s))
		fmt.Println(report.Table4(s))
		t5, err := report.Table5(s)
		if err != nil {
			return err
		}
		fmt.Println(t5)
	case "none":
	default:
		return fmt.Errorf("unknown table %q", o.table)
	}

	if o.grid {
		printGrid(s)
		fmt.Println(report.Summary(s))
	}
	if cfg.Market != nil {
		fmt.Printf("market model: %s (seed %d)\n", cfg.Market, cfg.Market.Seed)
	}
	if cfg.Faults.Active() {
		fmt.Printf("fault model: %s (seed %d)\n", cfg.Faults, cfg.Faults.Seed)
		printReliability(s)
	}
	if o.seeds > 0 {
		rows, err := core.MultiSeed(core.Config{Paranoid: o.paranoid}, o.seed, o.seeds)
		if err != nil {
			return err
		}
		fmt.Println(report.StabilityTable(rows))
	}
	if o.csvPath != "" {
		if err := writeArtifact(o.csvPath, func(w io.Writer) error {
			return report.WriteSweepCSV(w, s)
		}); err != nil {
			return err
		}
	}
	if o.mdPath != "" {
		if err := writeArtifact(o.mdPath, func(w io.Writer) error {
			return report.WriteMarkdown(w, s)
		}); err != nil {
			return err
		}
	}
	if o.gnuPath != "" {
		if err := writeArtifact(o.gnuPath, func(w io.Writer) error {
			return report.WriteGnuplotData(w, s)
		}); err != nil {
			return err
		}
	}
	if o.texPath != "" {
		if err := writeArtifact(o.texPath, func(w io.Writer) error {
			if err := report.WriteLaTeX(w, s); err != nil {
				return err
			}
			return report.WriteLaTeXTable4(w, s)
		}); err != nil {
			return err
		}
	}
	if cfg.SLA != nil {
		sr, err := cfg.SLA.Run()
		if err != nil && !errors.Is(err, sla.ErrNoStrategyMeets) {
			return err
		}
		fmt.Printf("=== SLA search: %s ===\n", cfg.SLA.Template.Name)
		fmt.Print(sla.Render(sr))
	}
	if cfg.Online != nil {
		ores, err := online.Run(*cfg.Online)
		if err != nil {
			return err
		}
		fmt.Println("=== online load ===")
		fmt.Print(online.Summary(cfg.Online, ores))
	}
	if o.htmlDir != "" {
		if err := os.MkdirAll(o.htmlDir, 0o755); err != nil {
			return err
		}
		gantts := []string{"OneVMperTask-s", "StartParExceed-s", "AllParExceed-m", "AllPar1LnSDyn"}
		for _, wf := range s.Workflows() {
			path := filepath.Join(o.htmlDir, strings.ToLower(wf)+".html")
			if err := writeArtifact(path, func(w io.Writer) error {
				return report.WriteHTML(w, s, wf, gantts)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeArtifact creates path, hands it to write, closes it, and reports
// the artifact on stderr (stdout carries the tables).
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// progressMeter renders a live one-line progress report: completed cells,
// throughput, and the ETA extrapolated from the mean cell rate. Updates
// arrive concurrently from the sweep's workers; output is throttled so a
// fast sweep does not flood the terminal.
type progressMeter struct {
	w     io.Writer
	start time.Time

	// last holds the unix-nanos of the most recent reprint. Throttled
	// calls bail on an atomic load + CAS without taking the mutex, so the
	// per-cell Progress callback stays cheap as its contract requires.
	last atomic.Int64

	mu sync.Mutex // serializes the actual writes
}

func newProgressMeter(w io.Writer) *progressMeter {
	return &progressMeter{w: w, start: time.Now()}
}

func (p *progressMeter) update(done, total int) {
	now := time.Now()
	if done < total {
		last := p.last.Load()
		if now.UnixNano()-last < int64(100*time.Millisecond) ||
			!p.last.CompareAndSwap(last, now.UnixNano()) {
			return // too soon, or another worker won the reprint
		}
	} else {
		p.last.Store(now.UnixNano())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := now.Sub(p.start).Seconds()
	fmt.Fprint(p.w, progressLine(done, total, elapsed))
	if done == total {
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		fmt.Fprintf(p.w, "\rsweep: %d cells in %.1fs (%.1f cells/s)          \n",
			total, elapsed, float64(done)/elapsed)
	}
}

// progressLine formats one live progress report. Before the first cell
// completes there is no rate to extrapolate an ETA from, and a zero
// elapsed or zero total would turn the arithmetic into 0/Inf/NaN — those
// states print "ETA --" (and 0%) instead of a nonsense number. The ETA is
// clamped to finite values: a pathological clock reading never leaks
// "+Inf" to the terminal.
func progressLine(done, total int, elapsed float64) string {
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	rate := float64(done) / elapsed
	eta := "--"
	if done > 0 && done < total && rate > 0 {
		if v := (float64(total - done)) / rate; !math.IsInf(v, 0) && !math.IsNaN(v) {
			eta = fmt.Sprintf("%.1fs", v)
		}
	} else if done == total && total > 0 {
		eta = "0.0s"
	}
	return fmt.Sprintf("\rsweep: %d/%d cells (%.0f%%)  %.1f cells/s  ETA %s ",
		done, total, pct, rate, eta)
}

// printReliability dumps one row per grid cell with the fault-replay
// outcome: what was injected, what recovery cost, and whether the
// workflow still finished.
func printReliability(s *core.Sweep) {
	for _, sc := range s.Scenarios() {
		for _, wf := range s.Workflows() {
			fmt.Printf("=== reliability: %s / %v ===\n", wf, sc)
			for _, r := range s.Points(wf, sc) {
				rel := r.Reliability
				if rel == nil {
					continue
				}
				status := "ok"
				if !rel.Completed {
					status = fmt.Sprintf("FAILED(%s) %3.0f%%", rel.FailReason, 100*rel.CompletedFraction)
				}
				market := ""
				if rel.SpotPreemptions > 0 || rel.FallbackVMs > 0 || rel.WarmIdleSeconds > 0 {
					market = fmt.Sprintf("  preempt %2d  fallback %2d (+$%.4f)  warm-idle %6.0fs",
						rel.SpotPreemptions, rel.FallbackVMs, rel.FallbackPremium, rel.WarmIdleSeconds)
				}
				fmt.Printf("  %-22s %-28s crashes %2d  fails %2d  retries %2d  resub %2d  wasted %8.0fs  +mk %8.1fs  +$%.4f%s\n",
					r.Strategy, status, rel.VMCrashes, rel.TaskFailures,
					rel.Retries, rel.Resubmits, rel.WastedBTUSeconds,
					rel.AddedMakespan, rel.AddedCost, market)
			}
		}
	}
}

func printGrid(s *core.Sweep) {
	for _, sc := range s.Scenarios() {
		for _, wf := range s.Workflows() {
			fmt.Printf("=== %s / %v ===\n", wf, sc)
			for _, r := range s.Points(wf, sc) {
				fmt.Printf("  %-22s gain %7.1f%%  loss %7.1f%%  idle %8.0fs  vms %2d  %s\n",
					r.Strategy, r.Point.GainPct, r.Point.LossPct,
					r.Point.IdleTime, r.Point.VMCount, r.Category)
			}
		}
	}
}
