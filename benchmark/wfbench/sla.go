package main

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sla"
)

// The sla workload runs sla.Search on the 6-tile Montage template: the
// scheduler layer of the sweep, but on a fresh DAG per instance with no
// pane memo and no batch sharing, plus template sampling, the analytic
// bound and faulty simulator replays.
const (
	slaTemplate = "montage"
	slaDeadline = 4000.0
	slaTarget   = 0.95
	slaSamples  = 200
	slaWorkers  = 2
	slaFaults   = "flaky"
	// slaVerifySearches searches are re-run at Workers=1 and without the
	// analytic bound; both must return an identical Best.
	slaVerifySearches = 3
	// slaWarmSamples is the sample count of the warm-up search.
	slaWarmSamples = 60
)

// slaMarkets crossed with the 21 registry strategies make the
// 42-candidate portfolio.
var slaMarkets = []string{"none", "spot"}

// slaConfig is the search configuration of the search at a seed.
func slaConfig(seed uint64) (sla.SearchConfig, error) {
	fc, err := fault.Preset(slaFaults)
	if err != nil {
		return sla.SearchConfig{}, err
	}
	fc.Seed = seed
	return sla.SearchConfig{
		Deadline: slaDeadline,
		Target:   slaTarget,
		Config:   sla.Config{Samples: slaSamples, Seed: seed, Workers: slaWorkers, Faults: &fc},
		Markets:  slaMarkets,
		Opts:     sched.DefaultOptions(),
	}, nil
}

// slaSearch runs one search and checks what can be checked without a
// second run: the audit accounts for every candidate, and a Best exists.
// ErrNoStrategyMeets is an answer, not a failure.
func slaSearch(tpl ndwf.Template, cfg sla.SearchConfig) (sla.SearchResult, error) {
	res, err := sla.Search(tpl, cfg)
	if err != nil && !errors.Is(err, sla.ErrNoStrategyMeets) {
		return res, err
	}
	a := res.Audit
	if a.PrunedCount+a.SampledCount != a.PortfolioSize || a.PortfolioSize != res.Considered {
		return res, fmt.Errorf("audit counts %d pruned + %d sampled of %d candidates (%d considered)",
			a.PrunedCount, a.SampledCount, a.PortfolioSize, res.Considered)
	}
	if res.Best == nil {
		return res, fmt.Errorf("no best candidate among %d", res.Considered)
	}
	return res, nil
}

// slaBestDigest hashes the chosen candidate with its full distribution.
func slaBestDigest(res sla.SearchResult) (string, error) {
	d := newDigest()
	if err := d.json(res.Best); err != nil {
		return "", err
	}
	return d.hex(), nil
}

// slaRun is what a loop of searches measured.
type slaRun struct {
	searches           []unit // each counting the instances it sampled
	busy               float64
	pruned, considered int
	kept               []sla.SearchResult // the first searches, for verification
}

// slaSearches runs searches at seeds seed, seed+1, ... until they have
// taken secs, at least one. Speed checkpoints fall between searches.
func slaSearches(tpl ndwf.Template, seed uint64, secs float64, r *report, keep int, sp *speed) (slaRun, error) {
	var out slaRun
	for i := 0; i == 0 || out.busy < secs; i++ {
		sp.tick()
		mark := sp.mark()
		res, d, err := slaTimed(tpl, seed+uint64(i), r, nil)
		if err != nil {
			return out, err
		}
		u := unit{secs: d, mark: mark}
		if res.Best != nil {
			u.ops = res.Sampled
			out.pruned += res.Audit.PrunedCount
			out.considered += res.Considered
		}
		out.searches = append(out.searches, u)
		out.busy += d
		if i < keep {
			out.kept = append(out.kept, res)
		}
	}
	return out, nil
}

// slaTimed runs and checks the search at a seed and returns it with its
// latency in seconds; a failed search comes back with a nil Best and is
// counted as failed. With a trace, the search gets an "sla.Search" span
// parenting its candidate spans.
func slaTimed(tpl ndwf.Template, seed uint64, r *report, t *obs.Trace) (sla.SearchResult, float64, error) {
	cfg, err := slaConfig(seed)
	if err != nil {
		return sla.SearchResult{}, 0, err
	}
	root := t.StartSpan("sla.Search", obs.SpanID{})
	cfg.Trace, cfg.TraceParent = t, root.ID()
	start := time.Now()
	res, err := slaSearch(tpl, cfg)
	d := time.Since(start).Seconds()
	root.End()
	// A failed search counts as the instances a complete one samples.
	n := res.Sampled
	if err != nil {
		n = max(n, slaSamples)
		r.fail(n, "search at seed %d: %v", seed, err)
		res.Best = nil
	}
	r.attempted += n
	return res, d, nil
}

func runSLA(o *options, r *report, sp *speed) error {
	var tpl ndwf.Template
	setups, err := repeatSetup(sp, func() error {
		var err error
		if tpl, err = ndwf.Named(slaTemplate); err != nil {
			return err
		}
		cfg, err := slaConfig(o.seed + warmSeedOffset)
		if err != nil {
			return err
		}
		cfg.Samples = slaWarmSamples
		_, err = slaSearch(tpl, cfg)
		return err
	})
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	run, err := slaSearches(tpl, o.seed, o.seconds, r, slaVerifySearches, sp)
	peak := heap.end()
	if err != nil {
		return err
	}

	for i, res := range run.kept {
		if res.Best == nil {
			continue
		}
		want, err := slaBestDigest(res)
		if err != nil {
			return err
		}
		for _, variant := range []string{"Workers=1", "NoBound"} {
			cfg, err := slaConfig(o.seed + uint64(i))
			if err != nil {
				return err
			}
			if variant == "NoBound" {
				cfg.NoBound = true
			} else {
				cfg.Workers = 1
			}
			again, err := slaSearch(tpl, cfg)
			if err != nil {
				r.fail(res.Sampled, "search %d at %s: %v", i, variant, err)
				continue
			}
			got, err := slaBestDigest(again)
			if err != nil {
				return err
			}
			if got != want {
				r.fail(res.Sampled, "search %d: %s best %s@%s (%s) differs from %s@%s (%s)", i, variant,
					again.Best.Strategy, again.Best.Market, got, res.Best.Strategy, res.Best.Market, want)
			}
		}
		r.digest("sla/search/"+strconv.Itoa(i), want, res.Sampled)
	}
	r.note("sla: %d searches in %.3f s, %d of %d candidates pruned", len(run.searches), run.busy, run.pruned, run.considered)
	return r.addEndToEnd(e2e{setups: setups, work: run.searches, lat: run.searches, missLat: run.searches, speed: sp, peakLive: peak})
}

// traceSLA is the SLA search's traced per-layer run: searches untraced
// and traced in alternation, then the layers under the search called from
// outside.
func traceSLA(o *options, t *obs.Trace, r *report) error {
	tpl, err := ndwf.Named(slaTemplate)
	if err != nil {
		return err
	}
	secs := o.seconds / traceScale
	warm, err := slaConfig(o.seed + warmSeedOffset)
	if err != nil {
		return err
	}
	warm.Samples = slaWarmSamples
	if _, err := slaSearch(tpl, warm); err != nil {
		return err
	}
	var pruned, considered int
	var unitErr error
	p := alternate(secs, t, func(i int, t *obs.Trace) (float64, int) {
		res, d, err := slaTimed(tpl, o.seed+uint64(i), r, t)
		if err != nil {
			unitErr = err
		}
		if res.Best == nil {
			return d, 0
		}
		if t == nil {
			pruned += res.Audit.PrunedCount
			considered += res.Considered
		}
		return d, res.Sampled
	})
	if unitErr != nil {
		return unitErr
	}
	if err := probeSLA(tpl, o.seed, secs/2, t, r); err != nil {
		return err
	}
	layers := layerStats(t.Spans())
	r.add("sla.bound_us", layers["sla.AnalyticBound"].p50()*1e6, "us")
	r.add("sla.prune_frac", float64(pruned)/float64(max(considered, 1)), "fraction")
	r.add("sla.sample_us", layers["ndwf.Template.Sample"].p50()*1e6, "us")
	r.add("sla.schedule_us", layers["sched.Algorithm.Schedule"].p50()*1e6, "us")
	r.add("sla.replay_us", layers["sim.Run"].p50()*1e6, "us")
	r.add("sla.measure_ms", layers["sla.Measure"].p50()*1e3, "ms")
	r.add("sla.candidate_ms", layers["candidate"].p50()*1e3, "ms")
	r.add("sla.allocs_per_instance", float64(p.mallocs)/float64(max(p.plainOps, 1)), "count")
	r.add("sla.gc_cpu_frac", p.gcFrac, "fraction")
	r.add("sla.trace_overhead_frac", p.overhead(), "fraction")
	printLayers(r, "sla", layers)
	return nil
}

// probeSLA calls the layers under sla.Search from outside, one span per
// call: the bound of every candidate, then the sample → schedule →
// faulty replay chain of sla.Measure instance by instance, cycling through
// the candidates, and finally whole Measure calls, until secs have passed.
func probeSLA(tpl ndwf.Template, seed uint64, secs float64, t *obs.Trace, r *report) error {
	cfg, err := slaConfig(seed)
	if err != nil {
		return err
	}
	cands := frontier.Portfolio(nil, slaMarkets)
	type cand struct {
		alg  sched.Algorithm
		opts sched.Options
	}
	var live []cand
	for _, c := range cands {
		sp := t.StartSpan("sla.AnalyticBound", obs.SpanID{})
		b, err := sla.AnalyticBound(tpl, sla.BoundType(c.Strategy))
		sp.End()
		if err != nil {
			return err
		}
		if b.MinMakespan > slaDeadline {
			continue
		}
		alg, err := sched.ByName(c.Strategy)
		if err != nil {
			return err
		}
		model, err := market.Preset(c.Market)
		if err != nil {
			return err
		}
		opts := cfg.Opts
		opts.Market = model
		live = append(live, cand{alg, opts})
	}
	if len(live) == 0 {
		return fmt.Errorf("every candidate pruned")
	}
	deadline := time.Now().Add(duration(secs / 2))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		c := live[i%len(live)]
		inst := t.StartSpan("probe.instance", obs.SpanID{})
		sp := t.StartSpan("ndwf.Template.Sample", inst.ID())
		wf, err := tpl.Sample(sla.InstanceSeed(seed, i))
		sp.End()
		r.attempted++
		if err != nil {
			r.fail(1, "sampling instance %d: %v", i, err)
			inst.End()
			continue
		}
		sp = t.StartSpan("sched.Algorithm.Schedule", inst.ID())
		s, err := c.alg.Schedule(wf, c.opts)
		sp.End()
		if err != nil {
			r.fail(1, "%s on instance %d: %v", c.alg.Name(), i, err)
			inst.End()
			continue
		}
		fc := *cfg.Faults
		fc.Seed = fault.CellSeed(cfg.Faults.Seed, "sla-fault", strconv.Itoa(i))
		sp = t.StartSpan("sim.Run", inst.ID())
		_, err = sim.Run(s, sim.Config{Faults: &fc})
		sp.End()
		if err != nil {
			r.fail(1, "replay of instance %d: %v", i, err)
		}
		inst.End()
	}
	deadline = time.Now().Add(duration(secs / 2))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		c := live[i%len(live)]
		sp := t.StartSpan("sla.Measure", obs.SpanID{})
		_, err := sla.Measure(tpl, c.alg, c.opts, slaDeadline, cfg.Config)
		sp.End()
		r.attempted += slaSamples
		if err != nil {
			r.fail(slaSamples, "measuring %s: %v", c.alg.Name(), err)
		}
	}
	return nil
}
