package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInstanceTypeProperties(t *testing.T) {
	cases := []struct {
		typ     InstanceType
		name    string
		suffix  string
		cores   int
		speedup float64
		bw      float64
	}{
		{Small, "small", "s", 1, 1.0, 1e9},
		{Medium, "medium", "m", 2, 1.6, 1e9},
		{Large, "large", "l", 4, 2.1, 10e9},
		{XLarge, "xlarge", "xl", 8, 2.7, 10e9},
	}
	for _, c := range cases {
		if c.typ.String() != c.name {
			t.Errorf("%v.String() = %q", c.typ, c.typ.String())
		}
		if c.typ.Suffix() != c.suffix {
			t.Errorf("%v.Suffix() = %q", c.typ, c.typ.Suffix())
		}
		if c.typ.Cores() != c.cores {
			t.Errorf("%v.Cores() = %d", c.typ, c.typ.Cores())
		}
		if c.typ.Speedup() != c.speedup {
			t.Errorf("%v.Speedup() = %v", c.typ, c.typ.Speedup())
		}
		if c.typ.Bandwidth() != c.bw {
			t.Errorf("%v.Bandwidth() = %v", c.typ, c.typ.Bandwidth())
		}
	}
}

func TestFasterSlower(t *testing.T) {
	if f, ok := Small.Faster(); !ok || f != Medium {
		t.Errorf("Small.Faster() = %v, %v", f, ok)
	}
	if f, ok := XLarge.Faster(); ok || f != XLarge {
		t.Errorf("XLarge.Faster() = %v, %v", f, ok)
	}
}

func TestParseInstanceType(t *testing.T) {
	for _, typ := range InstanceTypes() {
		for _, s := range []string{typ.String(), typ.Suffix()} {
			got, err := ParseInstanceType(s)
			if err != nil || got != typ {
				t.Errorf("ParseInstanceType(%q) = %v, %v", s, got, err)
			}
		}
	}
	if _, err := ParseInstanceType("huge"); err == nil {
		t.Error("ParseInstanceType(huge) succeeded")
	}
}

func TestTableIIPrices(t *testing.T) {
	// Spot-check Table II verbatim.
	cases := []struct {
		r     Region
		typ   InstanceType
		price float64
	}{
		{USEastVirginia, Small, 0.08},
		{USEastVirginia, XLarge, 0.64},
		{USWestCalifornia, Medium, 0.18},
		{EUDublin, Large, 0.34},
		{AsiaSingapore, Small, 0.085},
		{AsiaTokyo, XLarge, 0.736},
		{SASaoPaulo, Medium, 0.230},
	}
	for _, c := range cases {
		if got := c.r.Price(c.typ); got != c.price {
			t.Errorf("%v price of %v = %v, want %v", c.r, c.typ, got, c.price)
		}
	}
	if got := SASaoPaulo.TransferOutPrice(); got != 0.25 {
		t.Errorf("Sao Paulo transfer price = %v", got)
	}
	if got := USEastVirginia.TransferOutPrice(); got != 0.12 {
		t.Errorf("Virginia transfer price = %v", got)
	}
}

func TestPricesDoubleWithType(t *testing.T) {
	// In every region each type costs exactly twice the previous one.
	for _, r := range Regions() {
		for _, typ := range []InstanceType{Medium, Large, XLarge} {
			slower := typ - 1
			if math.Abs(r.Price(typ)-2*r.Price(slower)) > 1e-9 {
				t.Errorf("%v: price(%v) != 2*price(%v)", r, typ, slower)
			}
		}
	}
}

func TestParseRegion(t *testing.T) {
	for _, r := range Regions() {
		got, err := ParseRegion(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRegion(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseRegion("mars"); err == nil {
		t.Error("ParseRegion(mars) succeeded")
	}
}

func TestExecTime(t *testing.T) {
	p := NewPlatform()
	if got := p.ExecTime(1000, Small); got != 1000 {
		t.Errorf("ExecTime small = %v", got)
	}
	if got := p.ExecTime(1000, Medium); math.Abs(got-625) > 1e-9 {
		t.Errorf("ExecTime medium = %v, want 625", got)
	}
	if got := p.ExecTime(2700, XLarge); math.Abs(got-1000) > 1e-9 {
		t.Errorf("ExecTime xlarge = %v, want 1000", got)
	}
}

func TestTransferTime(t *testing.T) {
	p := NewPlatform()
	if got := p.TransferTime(0, Small, Small); got != 0 {
		t.Errorf("zero-size transfer = %v", got)
	}
	// 1 Gbit/s link: 1 GB = 8 Gbit -> 8 s + latency.
	oneGB := float64(1 << 30)
	want := oneGB*8/1e9 + p.Latency
	if got := p.TransferTime(oneGB, Small, Small); math.Abs(got-want) > 1e-9 {
		t.Errorf("1GB small-small = %v, want %v", got, want)
	}
	// Mixed links are limited by the slower 1 Gb side.
	if got := p.TransferTime(oneGB, Small, Large); math.Abs(got-want) > 1e-9 {
		t.Errorf("1GB small-large = %v, want %v", got, want)
	}
	// 10 Gb links are 10x faster.
	want10 := oneGB*8/10e9 + p.Latency
	if got := p.TransferTime(oneGB, Large, XLarge); math.Abs(got-want10) > 1e-9 {
		t.Errorf("1GB large-xlarge = %v, want %v", got, want10)
	}
}

func TestTransferCost(t *testing.T) {
	p := NewPlatform()
	twoGB := float64(2 << 30)
	if got := p.TransferCost(twoGB, EUDublin, EUDublin); got != 0 {
		t.Errorf("intra-region transfer cost = %v", got)
	}
	// 2 GB out of Dublin at 0.12/GB.
	if got := p.TransferCost(twoGB, EUDublin, USEastVirginia); math.Abs(got-0.24) > 1e-9 {
		t.Errorf("2GB Dublin->Virginia = %v, want 0.24", got)
	}
	// Below the 1 GB band edge: free.
	if got := p.TransferCost(1<<29, EUDublin, USEastVirginia); got != 0 {
		t.Errorf("0.5GB inter-region = %v, want 0", got)
	}
	// Exactly 1 GB: still free (band is exclusive at the bottom).
	if got := p.TransferCost(1<<30, EUDublin, USEastVirginia); got != 0 {
		t.Errorf("1GB inter-region = %v, want 0", got)
	}
	// Above 10 TB: outside the modelled band.
	if got := p.TransferCost(11*(1<<40), EUDublin, USEastVirginia); got != 0 {
		t.Errorf("11TB inter-region = %v, want 0", got)
	}
}

func TestBTUs(t *testing.T) {
	cases := []struct {
		span float64
		want int
	}{
		{0, 1}, {1, 1}, {3600, 1}, {3600.001, 2}, {7200, 2}, {7201, 3},
	}
	for _, c := range cases {
		if got := BTUs(c.span); got != c.want {
			t.Errorf("BTUs(%v) = %d, want %d", c.span, got, c.want)
		}
	}
}

// TestBTUsBoundary pins the eps guard: float error must never bill an
// extra full BTU at an exact k·BTU boundary, while genuinely longer
// leases still roll over.
func TestBTUsBoundary(t *testing.T) {
	for k := 1; k <= 4; k++ {
		exact := float64(k) * BTU
		for _, c := range []struct {
			span float64
			want int
		}{
			{exact, k},
			{exact - 1e-9, k},
			{exact + 1e-9, k}, // float noise over the boundary: still k
			{exact - 1e-3, k},
			{exact + 1e-3, k + 1}, // a real overrun rolls over
		} {
			if got := BTUs(c.span); got != c.want {
				t.Errorf("BTUs(%v) [k=%d] = %d, want %d", c.span, k, got, c.want)
			}
		}
	}
	// The motivating case: a lease assembled from n tasks of BTU/n seconds
	// each sums to "exactly" one BTU only up to float error; the guard must
	// absorb the error for any workflow size.
	for n := 1; n <= 64; n++ {
		e := BTU / float64(n)
		var span float64
		for i := 0; i < n; i++ {
			span += e
		}
		if got := BTUs(span); got != 1 {
			t.Errorf("BTUs(sum of %d x BTU/%d = %v) = %d, want 1", n, n, span, got)
		}
	}
}

func TestBTUsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	BTUs(-1)
}

// TestBTUsToleratesFloatNoiseBelowZero: a span of -1e-12 is a zero-length
// lease with float noise, not a modelling error.
func TestBTUsToleratesFloatNoiseBelowZero(t *testing.T) {
	if got := BTUs(-1e-12); got != 1 {
		t.Errorf("BTUs(-1e-12) = %d, want 1", got)
	}
}

func TestClose(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1 + 1e-10, true},
		{1, 1 + 1e-8, false},
		{1e6, 1e6 + 1e-4, true},  // relative: 1e-4 < Eps·1e6
		{1e6, 1e6 + 1e-2, false}, // 1e-2 > Eps·1e6
		{-5, 5, false},
	}
	for _, c := range cases {
		if got := Close(c.a, c.b); got != c.want {
			t.Errorf("Close(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLeaseCost(t *testing.T) {
	// 2.5 hours on a Virginia medium: 3 BTUs at 0.16.
	if got := LeaseCost(2.5*3600, Medium, USEastVirginia); math.Abs(got-0.48) > 1e-9 {
		t.Errorf("LeaseCost = %v, want 0.48", got)
	}
	// A started-but-instantly-stopped VM still pays one BTU.
	if got := LeaseCost(0, Small, USEastVirginia); got != 0.08 {
		t.Errorf("LeaseCost(0) = %v, want 0.08", got)
	}
}

// Property: lease cost is monotone in span, and speedups strictly increase
// with type while per-speedup value decreases (the "large instances don't
// pay off" observation of Sect. V).
func TestQuickLeaseCostMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a%1000000), float64(b%1000000)
		if x > y {
			x, y = y, x
		}
		return LeaseCost(x, Small, USEastVirginia) <= LeaseCost(y, Small, USEastVirginia)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupPerDollarDecreases(t *testing.T) {
	// The paper's economics: speedup/price strictly falls with size, which
	// is why large instances rarely win the gain/cost trade-off.
	r := USEastVirginia
	prev := math.Inf(1)
	for _, typ := range InstanceTypes() {
		ratio := typ.Speedup() / r.Price(typ)
		if ratio >= prev {
			t.Errorf("speedup-per-dollar not decreasing at %v: %v >= %v", typ, ratio, prev)
		}
		prev = ratio
	}
}

func TestBTUConstant(t *testing.T) {
	if BTU != 3600 {
		t.Errorf("BTU = %v, want 3600", BTU)
	}
}
