package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/spec"
)

// maxOnlineInstances bounds a single request's stream length: the run is
// O(instances × tasks) and the service must not let one request
// monopolize the pool.
const maxOnlineInstances = 5000

// defaultOnlineInstances is the stream length when the request leaves it
// unset.
const defaultOnlineInstances = 100

// maxOnlinePool bounds the requested pool ceiling.
const maxOnlinePool = 256

// OnlineMixJSON is one weighted component of an online request's workflow
// mix. Exactly one of Template (inline ndwf JSON) or TemplateName must be
// set; Weight defaults to 1.
type OnlineMixJSON struct {
	Template     json.RawMessage `json:"template,omitempty"`
	TemplateName string          `json:"template_name,omitempty"`
	Weight       float64         `json:"weight,omitempty"`
}

// OnlineRequest is the body of POST /v1/online: a continuous-traffic
// autoscaling question. An open-loop exponential stream of workflow
// instances — one template, or a weighted mix — runs against an elastic
// VM pool under the requested scaler, market preset and fault rates; the
// answer is the response-time distribution, SLA attainment, pool
// behaviour and the bill.
type OnlineRequest struct {
	// Template is an inline non-deterministic template document; exclusive
	// with TemplateName and Mix.
	Template json.RawMessage `json:"template,omitempty"`
	// TemplateName names a built-in template ("order", "montage", ...).
	TemplateName string `json:"template_name,omitempty"`
	// Mix draws each instance from weighted templates instead.
	Mix []OnlineMixJSON `json:"mix,omitempty"`
	// InterarrivalS is the mean exponential inter-arrival gap in seconds
	// (required, positive).
	InterarrivalS float64 `json:"interarrival_s"`
	// Instances is the stream length; default 100, max 5000.
	Instances int `json:"instances,omitempty"`
	// Instance is the pool's VM type; default small.
	Instance string `json:"instance,omitempty"`
	// Region prices the VMs; default is the paper's US East Virginia.
	Region string `json:"region,omitempty"`
	// MinVMs/MaxVMs bound the pool; MaxVMs defaults to 32, capped at 256.
	MinVMs int `json:"min_vms,omitempty"`
	MaxVMs int `json:"max_vms,omitempty"`
	// Scaler names the autoscaling policy; default reactive.
	Scaler string `json:"scaler,omitempty"`
	// Dispatch orders the ready queue: fifo (default) or sjf.
	Dispatch string `json:"dispatch,omitempty"`
	// DeadlineS is the per-instance response SLA in seconds (0 = none).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	// Market names a market preset ("none", "ondemand-sec", "spot", ...).
	Market string `json:"market,omitempty"`
	// Fault rates, as in /v1/sla: VM crashes and (for spot markets)
	// provider preemptions per VM-hour.
	FaultRate   float64 `json:"fault_rate,omitempty"`
	PreemptRate float64 `json:"preempt_rate,omitempty"`
	FaultSeed   uint64  `json:"fault_seed,omitempty"`
	// Seed drives arrivals and instance sampling.
	Seed uint64 `json:"seed,omitempty"`
}

// OnlineSummaryJSON is a response-time distribution.
type OnlineSummaryJSON struct {
	MeanS   float64 `json:"mean_s"`
	P50S    float64 `json:"p50_s"`
	P90S    float64 `json:"p90_s"`
	P99S    float64 `json:"p99_s"`
	MaxS    float64 `json:"max_s"`
	StddevS float64 `json:"stddev_s"`
}

// OnlineResponse is the body answering POST /v1/online.
type OnlineResponse struct {
	Instances    int               `json:"instances"`
	Scaler       string            `json:"scaler"`
	Dispatch     string            `json:"dispatch"`
	Instance     string            `json:"instance"`
	Region       string            `json:"region"`
	Seed         uint64            `json:"seed"`
	Response     OnlineSummaryJSON `json:"response"`
	DeadlineS    float64           `json:"deadline_s,omitempty"`
	SLAMet       int               `json:"sla_met,omitempty"`
	SLAFraction  float64           `json:"sla_fraction,omitempty"`
	PeakVMs      int               `json:"peak_vms"`
	VMsRented    int               `json:"vms_rented"`
	Utilization  float64           `json:"utilization"`
	TotalCostUSD float64           `json:"total_cost_usd"`
	MakespanS    float64           `json:"makespan_s"`
	Crashes      int               `json:"crashes,omitempty"`
	Preemptions  int               `json:"preemptions,omitempty"`
	ColdStartS   float64           `json:"cold_start_wait_s,omitempty"`
}

// spec maps the request onto its problem, after the admission caps on
// the stream length and the pool ceiling.
func (r *OnlineRequest) spec() (*spec.Online, error) {
	switch {
	case r.Instances > maxOnlineInstances:
		return nil, fmt.Errorf("instances %d outside [1, %d]", r.Instances, maxOnlineInstances)
	case r.MaxVMs > maxOnlinePool:
		return nil, fmt.Errorf("pool ceiling %d above %d", r.MaxVMs, maxOnlinePool)
	}
	o := &spec.Online{
		Template:      spec.Template{Name: r.TemplateName, Inline: r.Template},
		InterarrivalS: r.InterarrivalS,
		Instances:     cmp.Or(r.Instances, defaultOnlineInstances),
		Instance:      r.Instance,
		Region:        spec.Region(r.Region),
		MinVMs:        r.MinVMs,
		MaxVMs:        r.MaxVMs,
		Scaler:        r.Scaler,
		Dispatch:      r.Dispatch,
		DeadlineS:     r.DeadlineS,
		Market:        spec.Market{Preset: r.Market},
		Faults:        spec.Faults{CrashRate: r.FaultRate, PreemptRate: r.PreemptRate, Seed: r.FaultSeed},
		Seed:          r.Seed,
	}
	for _, m := range r.Mix {
		o.Mix = append(o.Mix, spec.MixEntry{Template: spec.Template{Name: m.TemplateName, Inline: m.Template}, Weight: m.Weight})
	}
	return o, nil
}

// planOnline runs the autoscaling harness.
func (s *Server) planOnline(ctx context.Context, sp *spec.Online) (any, error) {
	span, _ := obs.StartSpanCtx(ctx, "online_run")
	defer span.End()
	rr, err := online.Run(sp.Config())
	if err != nil {
		return nil, err
	}
	out := &OnlineResponse{
		Instances: rr.ResponseTimes.N,
		Scaler:    sp.Scaler,
		Dispatch:  sp.Dispatch,
		Instance:  sp.Instance,
		Region:    string(sp.Region),
		Seed:      sp.Seed,
		Response: OnlineSummaryJSON{
			MeanS:   rr.ResponseTimes.Mean,
			P50S:    rr.ResponseTimes.Median,
			P90S:    rr.ResponseTimes.P90,
			P99S:    rr.ResponseTimes.P99,
			MaxS:    rr.ResponseTimes.Max,
			StddevS: rr.ResponseTimes.Std,
		},
		DeadlineS:    sp.DeadlineS,
		PeakVMs:      rr.PeakVMs,
		VMsRented:    rr.VMsRented,
		Utilization:  rr.Utilization(),
		TotalCostUSD: rr.TotalCost,
		MakespanS:    rr.Makespan,
		Crashes:      rr.Crashes,
		Preemptions:  rr.Preemptions,
		ColdStartS:   rr.ColdStartWaitS,
	}
	if sp.DeadlineS > 0 {
		out.SLAMet = rr.SLAMet
		out.SLAFraction = float64(rr.SLAMet) / float64(rr.ResponseTimes.N)
	}
	return out, nil
}
