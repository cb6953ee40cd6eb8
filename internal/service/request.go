package service

import (
	"cmp"

	"repro/internal/spec"
	"repro/internal/wfio"
)

// ScheduleRequest is the body of POST /v1/schedule. Exactly one workflow
// source must be set: an inline workflow document or a registry name
// ("Montage", "montage24", "mapreduce16x8", ...). The strategy is either a
// catalog label (Strategy) or a composed algorithm + provisioning-policy +
// instance-type triple.
type ScheduleRequest struct {
	// Workflow is an inline workflow document (the wfio JSON shape).
	Workflow *wfio.File `json:"workflow,omitempty"`
	// WorkflowName names a built-in workflow or parametric generator.
	WorkflowName string `json:"workflow_name,omitempty"`
	// Scenario re-weights the workflow: "Pareto" (default), "Best case",
	// "Worst case", "Data heavy", or "As is"/"none" to keep the
	// workflow's own weights.
	Scenario string `json:"scenario,omitempty"`
	// Strategy is a catalog label, e.g. "AllParExceed-m" or "CPA-Eager".
	Strategy string `json:"strategy,omitempty"`
	// Algorithm + Policy + Instance compose a strategy explicitly:
	// algorithm "HEFT" or "AllPar", a provisioning policy of Sect. III-A,
	// and an instance type ("small"/"medium"/"large"/"xlarge").
	Algorithm string `json:"algorithm,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Instance  string `json:"instance,omitempty"`
	// Region prices the VMs; default is the paper's US East Virginia.
	Region string `json:"region,omitempty"`
	// Seed drives the Pareto draws.
	Seed uint64 `json:"seed,omitempty"`
	// Simulate additionally replays the plan through the discrete-event
	// simulator; BootS un-ignores VM boot time in that replay.
	Simulate bool    `json:"simulate,omitempty"`
	BootS    float64 `json:"boot_s,omitempty"`
	// Fault options inject failures into the simulated replay (they
	// require Simulate, like BootS): FaultRate is VM crashes per VM-hour,
	// TaskFailProb the per-attempt transient failure probability, Recovery
	// one of "retry", "resubmit", "fail". FaultSeed drives the fault
	// draws; MaxRetries caps transient retries per task (0 = default).
	FaultRate    float64 `json:"fault_rate,omitempty"`
	TaskFailProb float64 `json:"task_fail_prob,omitempty"`
	Recovery     string  `json:"recovery,omitempty"`
	MaxRetries   int     `json:"max_retries,omitempty"`
	FaultSeed    uint64  `json:"fault_seed,omitempty"`
	// Market prices every lease under a named market preset from
	// internal/market ("spot", "spot-fallback", "warm", ...); empty or
	// "none" keeps the paper's flat on-demand per-BTU economics.
	// MarketSeed overrides the preset's cold-start draw stream.
	// PreemptRate (spot reclamations per spot-VM-hour) injects provider
	// preemptions into the simulated replay; like the other fault fields
	// it requires Simulate, and it only bites spot leases.
	Market      string  `json:"market,omitempty"`
	MarketSeed  uint64  `json:"market_seed,omitempty"`
	PreemptRate float64 `json:"preempt_rate,omitempty"`
	// Debug runs the differential plan↔sim oracle on the schedule: a
	// fault-free simulated replay whose task timings, lease spans, BTU
	// counts and costs must agree with the analytical plan, plus an
	// independent accounting derived from the event stream. The verdict is
	// reported in the response's oracle field; a divergence indicates a
	// planner/simulator bug, not a bad request.
	Debug bool `json:"debug,omitempty"`
}

// spec maps the request onto its problem. An empty market is preset
// "none", which takes no market_seed.
func (r *ScheduleRequest) spec() (*spec.Schedule, error) {
	return &spec.Schedule{
		Workflow: spec.Workflow{Name: r.WorkflowName, Inline: r.Workflow},
		Scenario: spec.Scenario(r.Scenario),
		Strategy: spec.Strategy{Label: r.Strategy, Algorithm: r.Algorithm, Policy: r.Policy, Instance: r.Instance},
		Region:   spec.Region(r.Region),
		Seed:     r.Seed,
		Simulate: r.Simulate,
		BootS:    r.BootS,
		Faults: spec.Faults{CrashRate: r.FaultRate, PreemptRate: r.PreemptRate, TaskFailProb: r.TaskFailProb,
			Recovery: r.Recovery, MaxRetries: r.MaxRetries, Seed: r.FaultSeed},
		Market: spec.Market{Preset: cmp.Or(r.Market, "none"), Seed: r.MarketSeed},
		Debug:  r.Debug,
	}, nil
}

// CompareRequest is the body of POST /v1/compare: one workflow, one
// scenario, all 19 catalog strategies.
type CompareRequest struct {
	Workflow     *wfio.File `json:"workflow,omitempty"`
	WorkflowName string     `json:"workflow_name,omitempty"`
	Scenario     string     `json:"scenario,omitempty"`
	Region       string     `json:"region,omitempty"`
	Seed         uint64     `json:"seed,omitempty"`
}

// spec maps the request onto its problem.
func (r *CompareRequest) spec() (*spec.Compare, error) {
	return &spec.Compare{
		Workflow: spec.Workflow{Name: r.WorkflowName, Inline: r.Workflow},
		Scenario: spec.Scenario(r.Scenario),
		Region:   spec.Region(r.Region),
		Seed:     r.Seed,
	}, nil
}

// SlotJSON is one task occupation in a VM timeline.
type SlotJSON struct {
	Task  int     `json:"task"`
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// VMJSON is one rented VM and its timeline.
type VMJSON struct {
	ID    int        `json:"id"`
	Type  string     `json:"type"`
	Slots []SlotJSON `json:"slots"`
}

// SimulationJSON reports the discrete-event replay of a plan.
type SimulationJSON struct {
	Makespan   float64 `json:"makespan_s"`
	RentalCost float64 `json:"rental_cost_usd"`
	IdleTime   float64 `json:"idle_s"`
	BootS      float64 `json:"boot_s"`
	Events     int     `json:"events"`
	Transfers  int     `json:"transfers"`
	// Reliability is present when the replay ran under a fault model.
	Reliability *ReliabilityJSON `json:"reliability,omitempty"`
}

// ReliabilityJSON reports the fault-replay outcome of a plan.
type ReliabilityJSON struct {
	Completed         bool    `json:"completed"`
	CompletedFraction float64 `json:"completed_fraction"`
	FailReason        string  `json:"fail_reason,omitempty"`
	VMCrashes         int     `json:"vm_crashes"`
	TaskFailures      int     `json:"task_failures"`
	Retries           int     `json:"retries"`
	Resubmits         int     `json:"resubmits"`
	WastedBTUSeconds  float64 `json:"wasted_btu_s"`
	AddedMakespan     float64 `json:"added_makespan_s"`
	AddedCost         float64 `json:"added_cost_usd"`
	// Market-layer counters, present (nonzero) only when the plan rents
	// market leases: provider spot reclamations, on-demand fallback
	// replacements and their price premium, and warm-pool keepalive.
	SpotPreemptions int     `json:"spot_preemptions,omitempty"`
	FallbackVMs     int     `json:"fallback_vms,omitempty"`
	FallbackPremium float64 `json:"fallback_premium_usd,omitempty"`
	WarmIdleSeconds float64 `json:"warm_idle_s,omitempty"`
}

// ScheduleResponse is the body answering POST /v1/schedule.
type ScheduleResponse struct {
	Workflow         string          `json:"workflow"`
	Tasks            int             `json:"tasks"`
	Scenario         string          `json:"scenario"`
	Strategy         string          `json:"strategy"`
	Region           string          `json:"region"`
	Market           string          `json:"market,omitempty"`
	Seed             uint64          `json:"seed"`
	Makespan         float64         `json:"makespan_s"`
	Cost             float64         `json:"cost_usd"`
	IdleTime         float64         `json:"idle_s"`
	VMCount          int             `json:"vm_count"`
	GainPct          float64         `json:"gain_pct"`
	LossPct          float64         `json:"loss_pct"`
	Category         string          `json:"category"`
	BaselineMakespan float64         `json:"baseline_makespan_s"`
	BaselineCost     float64         `json:"baseline_cost_usd"`
	VMs              []VMJSON        `json:"vms"`
	Simulation       *SimulationJSON `json:"simulation,omitempty"`
	// Oracle reports the differential-oracle verdict when the request set
	// debug.
	Oracle *OracleJSON `json:"oracle,omitempty"`
}

// OracleJSON is the verdict of the plan↔sim differential oracle.
type OracleJSON struct {
	Passed bool `json:"passed"`
	// Divergence describes the first disagreement found; empty when the
	// oracle passed.
	Divergence string `json:"divergence,omitempty"`
}

// CompareRow is one strategy's outcome within a comparison.
type CompareRow struct {
	Strategy string  `json:"strategy"`
	Makespan float64 `json:"makespan_s"`
	Cost     float64 `json:"cost_usd"`
	IdleTime float64 `json:"idle_s"`
	VMCount  int     `json:"vm_count"`
	GainPct  float64 `json:"gain_pct"`
	LossPct  float64 `json:"loss_pct"`
	Category string  `json:"category"`
}

// CompareResponse is the body answering POST /v1/compare.
type CompareResponse struct {
	Workflow         string       `json:"workflow"`
	Tasks            int          `json:"tasks"`
	Scenario         string       `json:"scenario"`
	Region           string       `json:"region"`
	Seed             uint64       `json:"seed"`
	BaselineMakespan float64      `json:"baseline_makespan_s"`
	BaselineCost     float64      `json:"baseline_cost_usd"`
	Results          []CompareRow `json:"results"`
}

// CatalogResponse is the body answering GET /v1/catalog.
type CatalogResponse struct {
	Strategies    []string `json:"strategies"`
	Algorithms    []string `json:"algorithms"`
	Policies      []string `json:"policies"`
	Instances     []string `json:"instances"`
	Workflows     []string `json:"workflows"`
	Generators    []string `json:"generators"`
	Templates     []string `json:"templates"`
	Scenarios     []string `json:"scenarios"`
	Regions       []string `json:"regions"`
	Recoveries    []string `json:"recoveries"`
	FaultPresets  []string `json:"fault_presets"`
	MarketPresets []string `json:"market_presets"`
	Scalers       []string `json:"scalers"`
	Dispatches    []string `json:"dispatches"`
}
