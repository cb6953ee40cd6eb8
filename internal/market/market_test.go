package market

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloud"
)

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{OnDemand, Spot} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("futures"); err == nil {
		t.Error("unknown market accepted")
	}
	if s := Kind(9).String(); !strings.Contains(s, "9") {
		t.Errorf("out-of-range Kind string %q", s)
	}
}

func TestGranularityRoundTrip(t *testing.T) {
	units := map[Granularity]float64{PerBTU: cloud.BTU, PerMinute: 60, PerSecond: 1}
	for g, unit := range units {
		if g.Unit() != unit {
			t.Errorf("%v.Unit() = %v, want %v", g, g.Unit(), unit)
		}
		got, err := ParseGranularity(g.String())
		if err != nil || got != g {
			t.Errorf("ParseGranularity(%q) = %v, %v", g, got, err)
		}
	}
	if _, err := ParseGranularity("fortnight"); err == nil {
		t.Error("unknown granularity accepted")
	}
}

func TestNilLeaseIsLegacy(t *testing.T) {
	var l *Lease
	if l.IsSpot() || l.IsWarm() || l.HasFallback() {
		t.Error("nil lease claims market features")
	}
	if l.ColdStartDelay() != 0 || l.Granularity() != PerBTU || !l.BTUBilled() {
		t.Error("nil lease is not the legacy lease")
	}
	if l.Replacement() != nil || l.OnDemandFallback() != nil {
		t.Error("nil lease spawned a non-nil derivative")
	}
	if l.LabelSuffix() != "" {
		t.Errorf("nil lease label suffix %q", l.LabelSuffix())
	}
	// The nil bill must be bit-identical to the legacy one.
	for _, span := range []float64{0, 1, 3599.5, 3600, 7201} {
		want := cloud.LeaseCost(span, cloud.Large, cloud.USEastVirginia)
		if got := costOf(l, 500, span, cloud.Large, cloud.USEastVirginia); got != want {
			t.Errorf("nil lease cost(%v) = %v, want %v", span, got, want)
		}
		if l.PaidSeconds(span) != float64(cloud.BTUs(span))*cloud.BTU {
			t.Errorf("nil lease paid seconds(%v) = %v", span, l.PaidSeconds(span))
		}
		if paid, _ := l.Bill(500, span, cloud.Large, cloud.USEastVirginia); paid != l.PaidSeconds(span) {
			t.Errorf("nil lease billed paid seconds(%v) = %v, want %v", span, paid, l.PaidSeconds(span))
		}
	}
}

// A zero-length lease still bills one unit once the VM was started, under
// every granularity — the edge the single shared eps-guard must not round
// to zero.
func TestZeroLengthLeaseBillsOneUnit(t *testing.T) {
	for _, g := range []Granularity{PerBTU, PerMinute, PerSecond} {
		l := &Lease{Market: Spot, Gran: g, Discount: 0.5}
		if n := l.Units(0); n != 1 {
			t.Errorf("%v: zero-length lease bills %d units, want 1", g, n)
		}
		if got := l.PaidSeconds(0); got != g.Unit() {
			t.Errorf("%v: zero-length paid seconds %v, want %v", g, got, g.Unit())
		}
		base := cloud.PriceAt(cloud.Medium, cloud.EUDublin, 0) * g.Unit() / cloud.BTU
		if got, want := costOf(l, 0, 0, cloud.Medium, cloud.EUDublin), 0.5*base; !close(got, want) {
			t.Errorf("%v: zero-length spot cost %v, want %v", g, got, want)
		}
	}
}

// A preemption landing exactly on a billing boundary (up to float noise)
// must bill the exact multiple, not one extra unit — the eps-guard edge.
func TestBillingBoundaryEpsGuard(t *testing.T) {
	cases := []struct {
		gran Granularity
		span float64
		want int
	}{
		{PerMinute, 120, 2},
		{PerMinute, 120 + 1e-10, 2}, // noise above the boundary
		{PerMinute, 120 - 1e-10, 2}, // noise below it
		{PerMinute, 120.001, 3},     // a real overrun pays the next minute
		{PerSecond, 90, 90},
		{PerSecond, 90 + 1e-10, 90},
		{PerBTU, 2 * cloud.BTU, 2},
		{PerBTU, 2*cloud.BTU + 1e-7, 2}, // relative guard scales with span
	}
	for _, c := range cases {
		l := &Lease{Gran: c.gran}
		if got := l.Units(c.span); got != c.want {
			t.Errorf("%v lease of %v s bills %d units, want %d", c.gran, c.span, got, c.want)
		}
	}
}

func TestSpotCostUsesDiscountAndTrace(t *testing.T) {
	tr, err := NewTrace([]float64{0, 60}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	base := cloud.PriceAt(cloud.Small, cloud.USEastVirginia, 0)
	perMin := base * 60 / cloud.BTU

	// A price change mid-lease: two minutes spanning the t=60 step pay
	// each interval at its own multiplier (1x then 2x).
	l := &Lease{Market: Spot, Gran: PerMinute, Discount: 0.4, Trace: tr}
	if got, want := costOf(l, 0, 120, cloud.Small, cloud.USEastVirginia), 0.4*perMin*(1+2); !close(got, want) {
		t.Errorf("mid-lease price change: cost %v, want %v", got, want)
	}
	// Starting after the change, both minutes pay 2x.
	if got, want := costOf(l, 60, 120, cloud.Small, cloud.USEastVirginia), 0.4*perMin*(2+2); !close(got, want) {
		t.Errorf("post-change start: cost %v, want %v", got, want)
	}
	// No trace: flat discounted price; zero discount falls back to the default.
	flat := &Lease{Market: Spot, Gran: PerMinute}
	if got, want := costOf(flat, 0, 120, cloud.Small, cloud.USEastVirginia), DefaultSpotDiscount*perMin*2; !close(got, want) {
		t.Errorf("flat spot cost %v, want %v", got, want)
	}
	// On-demand at a finer granularity prorates the BTU price.
	od := &Lease{Gran: PerSecond}
	if got, want := costOf(od, 0, 90, cloud.Small, cloud.USEastVirginia), 90*base/cloud.BTU; !close(got, want) {
		t.Errorf("per-second on-demand cost %v, want %v", got, want)
	}
}

func TestReplacementAndFallbackTerms(t *testing.T) {
	l := &Lease{Market: Spot, Gran: PerSecond, ColdStart: 75, Warm: true,
		Fallback: true, Discount: 0.2, Trace: Synthetic(3, 8, 900, 0.2)}
	r := l.Replacement()
	if r.ColdStart != 0 || r.Warm {
		t.Errorf("replacement keeps cold start or warm anchor: %+v", r)
	}
	if r.Market != Spot || r.Gran != PerSecond || !r.Fallback {
		t.Errorf("replacement dropped market terms: %+v", r)
	}
	f := l.OnDemandFallback()
	if f.Market != OnDemand || f.Gran != PerSecond || f.IsSpot() || f.HasFallback() {
		t.Errorf("fallback terms wrong: %+v", f)
	}
}

func TestLeaseLabelRoundTrip(t *testing.T) {
	cases := []*Lease{
		nil,
		{Market: Spot},
		{Market: Spot, Gran: PerSecond},
		{Gran: PerMinute, Warm: true},
		{Market: Spot, Gran: PerMinute, Warm: true},
	}
	for _, l := range cases {
		label := "m3.large" + l.LabelSuffix()
		name, got, err := ParseLabel(label)
		if err != nil || name != "m3.large" {
			t.Fatalf("ParseLabel(%q) = %q, err %v", label, name, err)
		}
		if (got == nil) != (l == nil) {
			t.Fatalf("ParseLabel(%q) lease = %+v, want %+v", label, got, l)
		}
		if l != nil && (got.Market != l.Market || got.Gran != l.Gran || got.Warm != l.Warm) {
			t.Errorf("ParseLabel(%q) = %+v, want %+v", label, got, l)
		}
	}
	if _, _, err := ParseLabel("m3.large+bogus"); err == nil {
		t.Error("unknown label token accepted")
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// costOf is the cost half of a lease's bill.
func costOf(l *Lease, start, span float64, t cloud.InstanceType, r cloud.Region) float64 {
	_, cost := l.Bill(start, span, t, r)
	return cost
}
