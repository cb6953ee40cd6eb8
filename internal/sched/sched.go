// Package sched implements the task-allocation algorithms of the paper's
// Sect. III-B and the catalog of 19 named strategies evaluated in Sect. V:
//
//   - HEFT with the OneVMperTask / StartParNotExceed / StartParExceed
//     provisioning policies (homogeneous, one per instance type);
//   - the level-based AllParNotExceed / AllParExceed algorithms
//     (homogeneous, one per instance type);
//   - AllPar1LnS — level scheduling with parallelism reduction
//     (sequentializing short tasks behind the level's longest task);
//   - AllPar1LnSDyn — AllPar1LnS plus per-level VM speed escalation within
//     an AllParNotExceed-derived budget;
//   - CPA-Eager — critical-path VM upgrades within a 2x budget;
//   - Gain — gain-matrix VM upgrades within a 4x budget.
package sched

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/market"
	"repro/internal/plan"
	"repro/internal/provision"
)

// Options carries the platform context for one scheduling run.
type Options struct {
	Platform *cloud.Platform
	Region   cloud.Region
	// Market, when non-nil, stamps every VM the algorithms rent with the
	// model's lease terms (purchasing market, billing granularity,
	// cold-start delay, warm pool — see internal/market). Nil keeps the
	// paper's economics.
	Market *market.Model
}

// DefaultOptions returns the paper's setting: the default platform model in
// the cheapest region (US East Virginia).
func DefaultOptions() Options {
	return Options{Platform: cloud.NewPlatform(), Region: cloud.USEastVirginia}
}

func (o *Options) fill() {
	if o.Platform == nil {
		o.Platform = cloud.NewPlatform()
	}
}

// NewBuilder returns a plan.Builder wired with the options' platform,
// region and market model — the one constructor every algorithm in this
// package rents VMs through, so market terms reach each of them without
// per-algorithm plumbing.
func (o Options) NewBuilder(wf *dag.Workflow) *plan.Builder {
	b := plan.NewBuilder(wf, o.Platform, o.Region)
	b.SetMarket(o.Market)
	return b
}

// Algorithm produces a complete schedule for a workflow.
type Algorithm interface {
	// Name returns the strategy label used in the paper's figures, e.g.
	// "AllParExceed-m" or "CPA-Eager".
	Name() string
	// Schedule maps every task of the workflow onto VMs. Implementations
	// are deterministic: equal inputs yield equal schedules.
	Schedule(wf *dag.Workflow, opts Options) (*plan.Schedule, error)
}

// costKeys caches the full CostModel values of costModel: the model is a
// pure function of (instance type, platform latency) — ExecTime reads
// only the type's speedup and TransferTime only the type's bandwidth plus
// the platform latency — so the closures, and the Key Sprintf, are built
// once per distinct model instead of once per call.
var costKeys sync.Map // struct{typ; lat} -> dag.CostModel

// costModel returns the homogeneous cost model for ranking: execution on a
// fixed instance type and store-and-forward transfers on its link.
func costModel(p *cloud.Platform, typ cloud.InstanceType) dag.CostModel {
	// ExecTime depends only on the instance type's speedup and
	// TransferTime only on the type's bandwidth plus the platform
	// latency, so (type, latency) fully identifies the model and the
	// catalog's rank vectors are memoized per snapshot, one per type.
	ck := struct {
		typ cloud.InstanceType
		lat float64
	}{typ, p.Latency}
	if m, ok := costKeys.Load(ck); ok {
		return m.(dag.CostModel)
	}
	m, _ := costKeys.LoadOrStore(ck, dag.CostModel{
		Exec: func(t dag.Task) float64 { return p.ExecTime(t.Work, typ) },
		Comm: func(e dag.Edge) float64 { return p.TransferTime(e.Data, typ, typ) },
		Key:  fmt.Sprintf("homog:%s:lat=%g", typ, p.Latency),
	})
	return m.(dag.CostModel)
}

// Catalog returns the 19 strategies of the paper's Figs. 4 and 5: the five
// provisioning policies at small/medium/large plus the four heterogeneous
// algorithms. Order matches the figures' legends.
func Catalog() []Algorithm {
	var out []Algorithm
	for _, typ := range []cloud.InstanceType{cloud.Small, cloud.Medium, cloud.Large} {
		out = append(out,
			NewHEFT(provision.StartParNotExceed, typ),
			NewHEFT(provision.StartParExceed, typ),
			NewAllPar(provision.AllParExceed, typ),
			NewAllPar(provision.AllParNotExceed, typ),
			NewHEFT(provision.OneVMperTask, typ),
		)
	}
	out = append(out, NewCPAEager(), NewGain(), NewAllPar1LnS(), NewAllPar1LnSDyn())
	return out
}

var (
	byNameOnce sync.Once
	byNameMap  map[string]Algorithm
)

// ByName returns the catalog strategy — or hedging provisioner — with
// the given figure label. The lookup map is built once; the algorithms
// are stateless, so sharing the instances across callers is safe.
func ByName(name string) (Algorithm, error) {
	byNameOnce.Do(func() {
		byNameMap = make(map[string]Algorithm)
		for _, a := range Catalog() {
			byNameMap[a.Name()] = a
		}
		for _, a := range Hedges() {
			byNameMap[a.Name()] = a
		}
	})
	if a, ok := byNameMap[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("sched: unknown strategy %q", name)
}

// Baseline returns the paper's reference strategy, HEFT with OneVMperTask
// on small instances, against which gain and loss percentages are computed.
func Baseline() Algorithm { return NewHEFT(provision.OneVMperTask, cloud.Small) }
