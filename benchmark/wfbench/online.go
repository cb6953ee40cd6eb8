package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cloud"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/stats"
)

// The online workload runs online.Run in the configuration of the
// repository's BenchmarkOnlineSoak: an order:3 / montage2:1 template mix
// drawn by Config.Mix, mean inter-arrival 20 s, at most 256 VMs,
// per-second billing with a fixed 45 s cold start, a 7,200 s deadline and
// 10,000 instances a run. Runs at seeds seed, seed+1, ... repeat for the
// measured seconds; each run is one latency sample.
const (
	onlineRunInstances = 10_000
	// onlineWarm instances warm up in each set-up.
	onlineWarm = 5_000
	// onlineVerifyRuns runs are run again after the timed phase; each must
	// give an identical result.
	onlineVerifyRuns = 3
	// onlineHeapRate sizes the traced run's heap probe: this many
	// instances per traced second, at least one run's worth.
	onlineHeapRate = 50_000
)

// onlineMix resolves the run's template mix from the registry.
func onlineMix() ([]online.MixEntry, error) {
	var mix []online.MixEntry
	for _, e := range []struct {
		name   string
		weight float64
	}{{"order", 3}, {"montage2", 1}} {
		tpl, err := ndwf.Named(e.name)
		if err != nil {
			return nil, err
		}
		mix = append(mix, online.MixEntry{Template: tpl, Weight: e.weight})
	}
	return mix, nil
}

// onlineConfig is the configuration of a run of n instances at a seed.
func onlineConfig(mix []online.MixEntry, seed uint64, n int, rec obs.Recorder) online.Config {
	return online.Config{
		MeanInterarrival: 20,
		Instances:        n,
		Mix:              mix,
		Type:             cloud.Small,
		Region:           cloud.USEastVirginia,
		MaxVMs:           256,
		Market: &market.Model{
			Gran: market.PerSecond,
			Cold: market.ColdStart{Dist: "fixed", Mean: 45},
			Seed: seed,
		},
		Deadline: 7200,
		Seed:     seed,
		Recorder: rec,
	}
}

// onlineRun runs and checks n instances at a seed and returns the result
// with its seconds. With a trace, the run gets an "online.Run" span; rec,
// when not nil, receives the run's events.
func onlineRun(mix []online.MixEntry, seed uint64, n int, t *obs.Trace, rec obs.Recorder) (*online.Result, float64, error) {
	span := t.StartSpan("online.Run", obs.SpanID{})
	start := time.Now()
	res, err := online.Run(onlineConfig(mix, seed, n, rec))
	d := time.Since(start).Seconds()
	span.End()
	if err == nil {
		err = checkOnline(res, n)
	}
	return res, d, err
}

// checkOnline verifies what a result of n instances must satisfy.
func checkOnline(res *online.Result, n int) error {
	switch {
	case res.ResponseTimes.N != n || len(res.Responses) != n:
		return fmt.Errorf("%d of %d instances completed (%d response times)", res.ResponseTimes.N, n, len(res.Responses))
	case res.SLAMet < 0 || res.SLAMet > n:
		return fmt.Errorf("SLA met by %d of %d instances", res.SLAMet, n)
	case !(res.TotalCost > 0) || res.Events < n || res.VMsRented < 1:
		return fmt.Errorf("implausible result: cost %v, %d events, %d rentals", res.TotalCost, res.Events, res.VMsRented)
	}
	for _, v := range res.Responses {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("response time %v", v)
		}
	}
	return nil
}

// onlineDigest hashes every field of a result.
func onlineDigest(res *online.Result) (string, error) {
	d := newDigest()
	rest := *res
	rest.Responses = nil
	if err := d.json(rest); err != nil {
		return "", err
	}
	d.floats(res.Responses)
	return d.hex(), nil
}

// heapProbe is a Recorder that collects garbage every heapProbeEvery events
// of a run and keeps the largest live heap it finds: the exact live heap at
// the same points of the stream on every run. Sampling the live heap during
// a timed run would read it at whichever collections the machine's speed
// happens to place, and across identical runs its peak spread by 15%.
type heapProbe struct {
	events int
	peak   uint64
}

const heapProbeEvery = 10_000

func (h *heapProbe) Record(obs.Event) {
	h.events++
	if h.events%heapProbeEvery == 0 {
		runtime.GC()
		h.peak = max(h.peak, liveHeap())
	}
}

func runOnline(o *options, r *report, sp *speed) error {
	var mix []online.MixEntry
	setups, err := repeatSetup(sp, func() error {
		var err error
		if mix, err = onlineMix(); err != nil {
			return err
		}
		_, _, err = onlineRun(mix, o.seed+warmSeedOffset, onlineWarm, nil, nil)
		return err
	})
	if err != nil {
		return err
	}

	var (
		runs   []unit
		kept   []*online.Result
		busy   float64
		events int
	)
	for i := 0; i == 0 || busy < o.seconds; i++ {
		sp.tick()
		mark := sp.mark()
		res, d, err := onlineRun(mix, o.seed+uint64(i), onlineRunInstances, nil, nil)
		r.attempted += onlineRunInstances
		u := unit{secs: d, mark: mark}
		if err != nil {
			r.fail(onlineRunInstances, "run at seed %d: %v", o.seed+uint64(i), err)
			res = nil
		} else {
			u.ops = onlineRunInstances
			events += res.Events
		}
		runs = append(runs, u)
		busy += d
		if i < onlineVerifyRuns {
			kept = append(kept, res)
		}
	}

	// Determinism: the first runs again, each giving the same result, with
	// the heap probe attached.
	probe := &heapProbe{}
	for i, res := range kept {
		if res == nil {
			continue
		}
		want, err := onlineDigest(res)
		if err != nil {
			return err
		}
		again, _, err := onlineRun(mix, o.seed+uint64(i), onlineRunInstances, nil, probe)
		if err != nil {
			r.fail(onlineRunInstances, "run %d again: %v", i, err)
			continue
		}
		got, err := onlineDigest(again)
		if err != nil {
			return err
		}
		if got != want {
			r.fail(onlineRunInstances, "run %d: a second run gives %s, the first %s", i, got, want)
		}
		r.digest(fmt.Sprintf("online/run/%d", i), want, onlineRunInstances)
	}
	r.note("online: %d runs of %d instances, %d events, in %.3f s", len(runs), onlineRunInstances, events, busy)
	return r.addEndToEnd(e2e{setups: setups, work: runs, lat: runs, missLat: runs, speed: sp, peakLive: probe.peak})
}

// traceOnline is the online harness's traced per-layer run: runs untraced
// and traced in alternation, Template.Sample timed from outside over the
// same mix, then one longer run under the heap probe for the live heap per
// instance.
func traceOnline(o *options, t *obs.Trace, r *report) error {
	secs := o.seconds / traceScale
	mix, err := onlineMix()
	if err != nil {
		return err
	}
	if _, _, err := onlineRun(mix, o.seed+warmSeedOffset, onlineWarm, nil, nil); err != nil {
		return err
	}
	var events int
	var unitErr error
	p := alternate(secs, t, func(i int, t *obs.Trace) (float64, int) {
		res, d, err := onlineRun(mix, o.seed+uint64(i), onlineRunInstances, t, nil)
		r.attempted += onlineRunInstances
		if err != nil {
			r.fail(onlineRunInstances, "run at seed %d: %v", o.seed+uint64(i), err)
			unitErr = err
			return d, 0
		}
		if t == nil {
			events += res.Events
		}
		return d, onlineRunInstances
	})
	if unitErr != nil {
		return unitErr
	}
	durs := probeSample(mix, o.seed, onlineRunInstances, t, r)

	n := max(int(math.Round(onlineHeapRate*secs)), onlineRunInstances)
	runtime.GC()
	base := liveHeap()
	probe := &heapProbe{}
	_, _, err = onlineRun(mix, o.seed, n, nil, probe)
	r.attempted += n
	if err != nil {
		r.fail(n, "heap probe run of %d instances: %v", n, err)
	}

	plain := float64(max(p.plainOps, 1))
	meanSample := 0.0
	for _, d := range durs {
		meanSample += d / float64(len(durs))
	}
	r.add("online.sample_us", quantileOf(durs, 0.5)*1e6, "us")
	r.add("online.harness_us_per_instance", (p.plainS/plain-meanSample)*1e6, "us")
	r.add("online.events_per_instance", float64(events)/plain, "count")
	r.add("online.allocs_per_instance", float64(p.mallocs)/plain, "count")
	r.add("online.bytes_per_instance", float64(p.bytes)/plain, "B")
	r.add("online.live_heap_bytes_per_instance", (float64(probe.peak)-float64(base))/float64(n), "B")
	r.add("online.gc_cpu_frac", p.gcFrac, "fraction")
	r.add("online.trace_overhead_frac", p.overhead(), "fraction")
	printLayers(r, "online", layerStats(t.Spans()))
	return nil
}

// probeSample times ndwf.Template.Sample from outside over the run's mix:
// n draws, each picking a template by weight and sampling it at a seed of
// its own, one span per call. It returns each call's seconds.
func probeSample(mix []online.MixEntry, seed uint64, n int, t *obs.Trace, r *report) []float64 {
	total := 0.0
	for _, e := range mix {
		total += e.Weight
	}
	rng := stats.NewRNG(seed)
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64() * total
		pick := mix[len(mix)-1].Template
		for _, e := range mix {
			if u < e.Weight {
				pick = e.Template
				break
			}
			u -= e.Weight
		}
		s := rng.Uint64()
		sp := t.StartSpan("ndwf.Template.Sample", obs.SpanID{})
		start := time.Now()
		_, err := pick.Sample(s)
		durs = append(durs, time.Since(start).Seconds())
		sp.End()
		r.attempted++
		if err != nil {
			r.fail(1, "sampling %s at %d: %v", pick.Name, s, err)
		}
	}
	return durs
}
