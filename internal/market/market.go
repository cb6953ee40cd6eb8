// Package market models the cloud economics the paper abstracts away:
// which purchasing market a lease is bought on (on-demand vs spot), the
// granularity the provider bills in (whole BTUs, minutes or seconds), the
// price in effect during each billing interval (a piecewise-constant spot
// Trace), and the cold-start delay a freshly requested VM pays before its
// first task (a configurable distribution replacing the fixed boot lag).
//
// The package sits just above internal/cloud in the dependency graph:
// internal/plan attaches a *Lease to each VM, internal/sim replays the
// same terms operationally, and internal/validate re-derives them from
// the event stream — so every market bill is cross-checked three ways,
// exactly like the legacy BTU bill.
//
// A nil *Lease or nil *Model everywhere means "the paper's economics":
// on-demand, per-BTU, fixed boot lag, constant Table II prices. All
// methods are nil-safe and reproduce the legacy behaviour bit-for-bit, so
// code paths that never enable a market stay byte-identical (and
// allocation-free).
//
// Spot capacity composes with internal/fault rather than duplicating it:
// a preemption is a new crash cause (fault.Config.SpotPreemptRate,
// Injector.Losses) with its own hash-derived, order-independent
// draws and its own reliability counters, distinct from VM crashes.
package market

import (
	"fmt"
	"strings"

	"repro/internal/cloud"
)

// Kind selects the purchasing market of a lease.
type Kind int

const (
	// OnDemand is the paper's market: a fixed price, never reclaimed.
	OnDemand Kind = iota
	// Spot is discounted capacity the provider may reclaim at any moment
	// (fault.Config.SpotPreemptRate drives the reclamation process) and
	// whose price follows a multiplier Trace over the on-demand base.
	Spot
)

// String returns the CLI name of the market.
func (k Kind) String() string {
	switch k {
	case OnDemand:
		return "ondemand"
	case Spot:
		return "spot"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a market by its CLI name, case-insensitively.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{OnDemand, Spot} {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("market: unknown market %q (valid: ondemand, spot)", s)
}

// Granularity is the billing quantum a lease is charged in. The zero
// value is the paper's whole-BTU billing.
type Granularity int

const (
	// PerBTU bills whole BTUs (3600 s), the paper's model.
	PerBTU Granularity = iota
	// PerMinute bills whole minutes.
	PerMinute
	// PerSecond bills whole seconds.
	PerSecond
)

// Unit returns the billing quantum in seconds.
func (g Granularity) Unit() float64 {
	switch g {
	case PerMinute:
		return 60
	case PerSecond:
		return 1
	}
	return cloud.BTU
}

// String returns the CLI name of the granularity.
func (g Granularity) String() string {
	switch g {
	case PerBTU:
		return "btu"
	case PerMinute:
		return "min"
	case PerSecond:
		return "sec"
	}
	return fmt.Sprintf("Granularity(%d)", int(g))
}

// ParseGranularity resolves a granularity by its CLI name.
func ParseGranularity(s string) (Granularity, error) {
	for _, g := range []Granularity{PerBTU, PerMinute, PerSecond} {
		if strings.EqualFold(g.String(), s) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("market: unknown granularity %q (valid: btu, min, sec)", s)
}

// DefaultSpotDiscount is the spot base price as a fraction of on-demand
// when a Lease does not set its own — the same 30% clearing rate the
// sweep driver assumes for co-renting idle time (core.coRentRate).
const DefaultSpotDiscount = 0.3

// Lease is the market terms of one VM lease, attached to plan.VM and
// replayed by the simulator. A nil *Lease is the legacy lease: on-demand,
// per-BTU, the simulator's configured boot lag — every method treats nil
// as exactly that, so non-market code paths never allocate one.
type Lease struct {
	// Market is the purchasing market the lease was bought on.
	Market Kind
	// Gran is the billing granularity.
	Gran Granularity
	// ColdStart is the provisioning delay this lease drew from the
	// model's distribution: the VM is requested (and billed) at the lease
	// start and becomes usable ColdStart seconds later. It replaces the
	// simulator's fixed BootTime for market leases.
	ColdStart float64
	// Warm marks a warm-pool lease: opened (and billed) at absolute time
	// zero so its boot is already over when work arrives.
	Warm bool
	// Fallback marks a spot lease that, when preempted, is replaced by an
	// on-demand lease (see OnDemandFallback) instead of another spot one.
	Fallback bool
	// Discount is the spot base price as a fraction of the on-demand
	// price; zero selects DefaultSpotDiscount. Ignored off-spot.
	Discount float64
	// Trace is the spot price multiplier over time; nil is a flat 1.0.
	// Ignored off-spot.
	Trace *Trace
}

// IsSpot reports whether the lease was bought on the spot market.
func (l *Lease) IsSpot() bool { return l != nil && l.Market == Spot }

// IsWarm reports whether the lease is a warm-pool keepalive lease.
func (l *Lease) IsWarm() bool { return l != nil && l.Warm }

// HasFallback reports whether a preemption of this lease falls back to
// on-demand capacity.
func (l *Lease) HasFallback() bool { return l != nil && l.Fallback }

// ColdStartDelay returns the lease's cold-start delay; zero for nil.
func (l *Lease) ColdStartDelay() float64 {
	if l == nil {
		return 0
	}
	return l.ColdStart
}

// Granularity returns the billing granularity; PerBTU for nil.
func (l *Lease) Granularity() Granularity {
	if l == nil {
		return PerBTU
	}
	return l.Gran
}

// BTUBilled reports whether the lease bills in whole BTUs — the
// granularity under which the simulator emits BTU-rollover events and the
// oracle counts them.
func (l *Lease) BTUBilled() bool { return l.Granularity() == PerBTU }

// discount returns the effective spot discount.
func (l *Lease) discount() float64 {
	if l.Discount > 0 {
		return l.Discount
	}
	return DefaultSpotDiscount
}

// Units returns the number of whole billing units covering span seconds
// under the lease's granularity, with the same eps-guarded rounding as
// cloud.BTUs (one shared guard: a span landing on a boundary up to float
// noise must bill identically at every layer).
func (l *Lease) Units(span float64) int {
	return cloud.Units(span, l.Granularity().Unit())
}

// PaidSeconds returns the billed lease length for a span: Units rounded
// up, times the billing unit. For a nil lease this is the legacy
// BTUs·3600. It prices nothing, so a question about the paid boundary
// alone never walks a spot trace.
func (l *Lease) PaidSeconds(span float64) float64 {
	return float64(l.Units(span)) * l.Granularity().Unit()
}

// Bill returns the paid seconds and the rental price of a lease held for
// span seconds starting at absolute time start, both from one Units
// rounding; paid is PaidSeconds(span). On-demand leases pay
// cloud.PriceAt per BTU (prorated to the granularity); spot leases pay
// the discounted base scaled by the trace multiplier in effect at each
// billing interval's start — a lease spanning a price change pays each
// interval at its own rate. A nil lease's cost is cloud.LeaseCost's,
// bit for bit.
func (l *Lease) Bill(start, span float64, t cloud.InstanceType, r cloud.Region) (paid, cost float64) {
	unit := l.Granularity().Unit()
	n := l.Units(span)
	paid = float64(n) * unit
	if l == nil || (l.Market == OnDemand && l.Gran == PerBTU) {
		// The legacy bill, cloud.LeaseCost's product (no prorating
		// round-trip error).
		return paid, float64(n) * r.Price(t)
	}
	perUnit := cloud.PriceAt(t, r, start) * unit / cloud.BTU
	if l.Market != Spot {
		return paid, float64(n) * perUnit
	}
	perUnit *= l.discount()
	if l.Trace == nil {
		return paid, float64(n) * perUnit
	}
	return paid, perUnit * l.Trace.SumAt(start, n, unit)
}

// Replacement returns the terms a crash/resubmit replacement of this
// lease is bought under: the same market and granularity, but no
// cold-start credit (replacements pay the fault model's reboot lag) and
// no warm anchor. Nil begets nil.
func (l *Lease) Replacement() *Lease {
	if l == nil {
		return nil
	}
	c := *l
	c.ColdStart = 0
	c.Warm = false
	return &c
}

// OnDemandFallback returns the on-demand terms a preempted
// fallback-enabled spot lease is replaced under: same granularity, full
// price, not reclaimable. Nil begets nil.
func (l *Lease) OnDemandFallback() *Lease {
	if l == nil {
		return nil
	}
	return &Lease{Market: OnDemand, Gran: l.Gran}
}

// LabelSuffix renders the lease terms as "+"-joined tokens appended to
// the instance-type label of lease-start events ("+spot", "+warm",
// "+min"/"+sec"), so the event-stream oracle can re-derive the billing
// granularity and warm flag without access to the plan. A nil or
// all-default lease contributes nothing, keeping legacy streams
// byte-identical.
func (l *Lease) LabelSuffix() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	if l.Market == Spot {
		b.WriteString("+spot")
	}
	if l.Warm {
		b.WriteString("+warm")
	}
	if l.Gran != PerBTU {
		b.WriteString("+")
		b.WriteString(l.Gran.String())
	}
	return b.String()
}

// ParseLabel splits a lease-start event label back into the instance-type
// name and the billing-relevant lease terms (granularity and warm flag;
// pricing details do not travel on the label). A bare label returns a nil
// lease — the legacy terms.
func ParseLabel(label string) (typeName string, l *Lease, err error) {
	// Token-at-a-time scan instead of strings.Split: the oracle parses one
	// label per lease event, and the Split slice was a measurable share of
	// the paranoid sweep's allocations.
	i := strings.IndexByte(label, '+')
	if i < 0 {
		return label, nil, nil
	}
	typeName, rest := label[:i], label[i+1:]
	for {
		tok, more := rest, false
		if j := strings.IndexByte(rest, '+'); j >= 0 {
			tok, rest, more = rest[:j], rest[j+1:], true
		}
		switch tok {
		case "spot":
			if l == nil {
				l = &Lease{}
			}
			l.Market = Spot
		case "warm":
			if l == nil {
				l = &Lease{}
			}
			l.Warm = true
		case "min", "sec":
			if l == nil {
				l = &Lease{}
			}
			l.Gran, _ = ParseGranularity(tok)
		default:
			return typeName, l, fmt.Errorf("market: unknown lease label token %q in %q", tok, label)
		}
		if !more {
			return typeName, l, nil
		}
	}
}
