package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/validate"
)

// The sweep workload runs the paper's grid, core.Run with the paranoid
// plan↔sim oracle on every cell, at a fresh seed per grid so that the
// per-snapshot rank memo starts cold, the cost users actually pay.
const (
	// gridCells is 4 workflows × 3 scenarios × 19 strategies.
	gridCells = 228
	// sweepVerifyGrids grids are recomputed at Workers=1 after the timed
	// phase; their digests must be bit-identical to the parallel run's.
	sweepVerifyGrids = 20
	// warmSeedOffset keeps warm-up seeds clear of the measured ones.
	warmSeedOffset = 1 << 40
	// sweepWarmGrids grids warm the caches in each set-up.
	sweepWarmGrids = 8
)

func sweepConfig() core.Config { return core.Config{Paranoid: true}.Fill() }

func runSweep(o *options, r *report, sp *speed) error {
	var cfg core.Config
	setups, err := repeatSetup(sp, func() error {
		cfg = sweepConfig()
		for k := uint64(0); k < sweepWarmGrids; k++ {
			warm := cfg
			warm.Seed = o.seed + warmSeedOffset + k
			if _, err := core.Run(warm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	grids, kept := sweepGrids(cfg, o.seed, o.seconds, r, sweepVerifyGrids, sp)
	peak := heap.end()

	for i, sw := range kept {
		if sw == nil {
			continue
		}
		d, err := sweepDigest(sw)
		if err != nil {
			return err
		}
		serial := cfg
		serial.Seed = o.seed + uint64(i)
		serial.Workers = 1
		sw1, err := core.Run(serial)
		if err != nil {
			r.fail(gridCells, "grid %d at Workers=1: %v", i, err)
			continue
		}
		d1, err := sweepDigest(sw1)
		if err != nil {
			return err
		}
		if d1 != d {
			r.fail(gridCells, "grid %d: Workers=1 digest %s differs from Workers=%d digest %s",
				i, d1, runtime.GOMAXPROCS(0), d)
		}
		r.digest(fmt.Sprintf("sweep/grid/%d", i), d, gridCells)
	}
	r.note("sweep: %d grids; the first %d re-run serially", len(grids), len(kept))
	return r.addEndToEnd(e2e{setups: setups, work: grids, lat: grids, missLat: grids, speed: sp, peakLive: peak})
}

// sweepGrids runs grids at seeds seed, seed+1, ... until they have taken
// secs, at least one, and returns each grid as a unit counting its
// verified cells, and the first keep grids (nil where a grid failed).
// Speed checkpoints fall between grids.
func sweepGrids(cfg core.Config, seed uint64, secs float64, r *report, keep int,
	sp *speed) (grids []unit, kept []*core.Sweep) {
	busy := 0.0
	for i := 0; i == 0 || busy < secs; i++ {
		sp.tick()
		mark := sp.mark()
		d, sw := sweepGrid(cfg, seed+uint64(i), r, nil)
		u := unit{secs: d, mark: mark}
		if sw != nil {
			u.ops = gridCells
		}
		grids = append(grids, u)
		busy += d
		if i < keep {
			kept = append(kept, sw)
		}
	}
	return grids, kept
}

// sweepGrid runs and checks the grid at a seed, returning its latency in
// seconds and the grid, nil when it failed. With a trace, the grid gets a
// "core.Run" span parenting core's cell spans.
func sweepGrid(cfg core.Config, seed uint64, r *report, t *obs.Trace) (float64, *core.Sweep) {
	cfg.Seed = seed
	root := t.StartSpan("core.Run", obs.SpanID{})
	cfg.Trace, cfg.TraceSpan = t, root.ID()
	start := time.Now()
	sw, err := core.Run(cfg)
	d := time.Since(start).Seconds()
	root.End()
	r.attempted += gridCells
	switch {
	case err != nil:
		r.fail(gridCells, "grid at seed %d: %v", seed, err)
		return d, nil
	case sw.Len() != gridCells:
		r.fail(gridCells, "grid at seed %d has %d cells, want %d", seed, sw.Len(), gridCells)
		return d, nil
	}
	return d, sw
}

// sweepDigest hashes every cell of a grid in grid order.
func sweepDigest(sw *core.Sweep) (string, error) {
	d := newDigest()
	for _, wf := range sw.Workflows() {
		for _, sc := range sw.Scenarios() {
			for _, res := range sw.Points(wf, sc) {
				if err := d.json(res); err != nil {
					return "", err
				}
			}
		}
	}
	return d.hex(), nil
}

// traceSweep is the sweep's traced per-layer run: grids untraced and
// traced in alternation, then each layer's public function called from
// outside on the grid's own panes.
func traceSweep(o *options, t *obs.Trace, r *report) error {
	cfg := sweepConfig()
	secs := o.seconds / traceScale
	if d, sw := sweepGrid(cfg, o.seed+warmSeedOffset, r, nil); sw == nil {
		return fmt.Errorf("warm-up grid failed after %.3f s", d)
	}
	p := alternate(secs, t, func(i int, t *obs.Trace) (float64, int) {
		d, sw := sweepGrid(cfg, o.seed+uint64(i), r, t)
		if sw == nil {
			return d, 0
		}
		return d, gridCells
	})
	if err := probeSweep(cfg, o.seed, secs/2, t, r); err != nil {
		return err
	}
	layers := layerStats(t.Spans())
	cells := float64(max(p.plainOps, 1))
	r.add("sweep.apply_us", layers["workload.Scenario.Apply"].p50()*1e6, "us")
	r.add("sweep.ranks_us", layers["dag.Workflow.UpwardRanks"].p50()*1e6, "us")
	r.add("sweep.baseline_us", layers["sched.Baseline.Schedule"].p50()*1e6, "us")
	r.add("sweep.schedule_us", layers["sched.Batch.Schedule"].p50()*1e6, "us")
	r.add("sweep.oracle_us", layers["validate.Scratch.PlanSim"].p50()*1e6, "us")
	r.add("sweep.metrics_us", layers[sweepMetricsSpan].p50()*1e6, "us")
	r.add("sweep.cell_us", layers["cell"].p50()*1e6, "us")
	r.add("sweep.worker_busy_frac", layers["cell"].totalSeconds()/(p.tracedS*float64(runtime.GOMAXPROCS(0))), "fraction")
	r.add("sweep.allocs_per_cell", float64(p.mallocs)/cells, "count")
	r.add("sweep.bytes_per_cell", float64(p.bytes)/cells, "B")
	r.add("sweep.gc_cpu_frac", p.gcFrac, "fraction")
	r.add("sweep.trace_overhead_frac", p.overhead(), "fraction")
	printLayers(r, "sweep", layers)
	return nil
}

// sweepMetricsSpan names the span around the per-cell metric derivations.
const sweepMetricsSpan = "metrics.Compare+Classify+Energy+CoRent"

// probeSweep replays the cell pipeline of core.Run from outside, one span
// per public call, over every pane of grids at seeds seed, seed+1, ...
// until secs have passed (at least one grid).
func probeSweep(cfg core.Config, seed uint64, secs float64, t *obs.Trace, r *report) error {
	opts := sched.Options{Platform: cfg.Platform, Region: cfg.Region}
	plat := cfg.Platform
	// An unkeyed cost model is never memoized, so every rank call is cold.
	ranks := dag.CostModel{
		Exec: func(task dag.Task) float64 { return plat.ExecTime(task.Work, cloud.Small) },
		Comm: func(e dag.Edge) float64 { return plat.TransferTime(e.Data, cloud.Small, cloud.Small) },
	}
	oracle := validate.NewScratch()
	energy := metrics.DefaultEnergyModel()
	deadline := time.Now().Add(duration(secs))
	for g := uint64(0); g == 0 || time.Now().Before(deadline); g++ {
		for _, name := range cfg.WorkflowOrder {
			for _, sc := range cfg.Scenarios {
				pane := t.StartSpan("probe.pane", obs.SpanID{})
				sp := t.StartSpan("workload.Scenario.Apply", pane.ID())
				w := sc.Apply(cfg.Workflows[name], seed+g)
				sp.End()
				sp = t.StartSpan("dag.Workflow.UpwardRanks", pane.ID())
				w.UpwardRanks(ranks)
				sp.End()
				sp = t.StartSpan("sched.Baseline.Schedule", pane.ID())
				base, err := sched.Baseline().Schedule(w, opts)
				sp.End()
				if err != nil {
					return fmt.Errorf("baseline on %s: %w", name, err)
				}
				batch := sched.NewBatchWithBaseline(w, opts, base)
				for _, alg := range cfg.Strategies {
					cell := t.StartSpan("probe.cell", pane.ID())
					sp = t.StartSpan("sched.Batch.Schedule", cell.ID())
					s, err := batch.Schedule(alg)
					sp.End()
					r.attempted++
					if err != nil {
						r.fail(1, "%s on %s: %v", alg.Name(), name, err)
						cell.End()
						continue
					}
					sp = t.StartSpan("validate.Scratch.PlanSim", cell.ID())
					err = oracle.PlanSim(s)
					sp.End()
					if err != nil {
						r.fail(1, "oracle on %s/%s: %v", name, alg.Name(), err)
					}
					sp = t.StartSpan(sweepMetricsSpan, cell.ID())
					p := metrics.Compare(alg.Name(), s, base)
					metrics.Classify(p)
					energy.Energy(s)
					metrics.CoRent(s, 0.3)
					sp.End()
					cell.End()
				}
				pane.End()
			}
		}
	}
	return nil
}
