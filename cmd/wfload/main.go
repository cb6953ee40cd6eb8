// Command wfload drives the online autoscaling harness: an open-loop
// stream of workflow instances — one template or a weighted mix — against
// an elastic VM pool under a chosen scaler, market preset and fault
// scenario, reporting response-time percentiles, SLA attainment, pool
// behaviour and the bill.
//
// Usage:
//
//	wfload -template order -n 200 -interarrival 300
//	wfload -mix order:3,montage2:1 -scaler deadline -deadline 3600
//	wfload -template montage -market spot -faults preempt-mild -trace-out pool.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/spec"
)

// options carries every flag, so tests can drive run() directly.
type options struct {
	template     string
	mix          string
	interarrival float64
	n            int
	vmType       string
	region       string
	minVMs       int
	maxVMs       int
	scaler       string
	dispatch     string
	deadline     float64
	market       string
	faults       string
	seed         uint64
	traceOut     string
}

func main() {
	var o options
	flag.StringVar(&o.template, "template", "", "built-in template name (see ndflow) or template JSON file")
	flag.StringVar(&o.mix, "mix", "", "weighted template mix, e.g. order:3,montage2:1 (exclusive with -template)")
	flag.Float64Var(&o.interarrival, "interarrival", 600, "mean inter-arrival time between instances, seconds")
	flag.IntVar(&o.n, "n", 100, "number of workflow instances")
	flag.StringVar(&o.vmType, "type", "small", "VM instance type")
	flag.StringVar(&o.region, "region", "us-east-virginia", "region")
	flag.IntVar(&o.minVMs, "min", 0, "warm-pool floor (VMs kept alive while idle)")
	flag.IntVar(&o.maxVMs, "max", 32, "pool ceiling")
	flag.StringVar(&o.scaler, "scaler", "reactive", "autoscaler policy: "+strings.Join(online.ScalerNames(), ", "))
	flag.StringVar(&o.dispatch, "dispatch", "fifo", "ready-queue order: fifo or sjf")
	flag.Float64Var(&o.deadline, "deadline", 0, "per-instance response SLA in seconds (0 = none)")
	flag.StringVar(&o.market, "market", "none", "market preset: "+strings.Join(market.PresetNames(), ", "))
	flag.StringVar(&o.faults, "faults", "none", "fault scenario: "+strings.Join(fault.PresetNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 42, "simulation seed")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the pool timeline as Chrome trace JSON to this file")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wfload:", err)
		os.Exit(1)
	}
}

// parseMix turns "order:3,montage2:1" into mix entries.
func parseMix(s string) ([]spec.MixEntry, error) {
	var mix []spec.MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, ":")
		weight := 1.0
		if ok {
			var err error
			if weight, err = strconv.ParseFloat(weightStr, 64); err != nil {
				return nil, fmt.Errorf("bad mix weight in %q: %v", part, err)
			}
		}
		mix = append(mix, spec.MixEntry{Template: spec.TemplateArg(name), Weight: weight})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return mix, nil
}

func run(o options, w io.Writer) error {
	sp := spec.Online{
		InterarrivalS: o.interarrival,
		Instances:     o.n,
		Instance:      o.vmType,
		Region:        spec.Region(o.region),
		MinVMs:        o.minVMs,
		MaxVMs:        o.maxVMs,
		Scaler:        o.scaler,
		Dispatch:      o.dispatch,
		DeadlineS:     o.deadline,
		Market:        spec.Market{Preset: o.market},
		// The fault preset draws from the simulation seed.
		Faults: spec.Faults{Preset: o.faults, Seed: o.seed},
		Seed:   o.seed,
	}
	if o.template != "" {
		sp.Template = spec.TemplateArg(o.template)
	}
	if o.mix != "" {
		var err error
		if sp.Mix, err = parseMix(o.mix); err != nil {
			return err
		}
	}
	if err := sp.Validate(); err != nil {
		return err
	}
	cfg := sp.Config()
	var col obs.Collector
	if o.traceOut != "" {
		cfg.Recorder = &col
	}
	res, err := online.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, online.Summary(&cfg, res))
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, col.Events, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "pool timeline: %s (%d events; open in Perfetto)\n", o.traceOut, len(col.Events))
	}
	return nil
}
