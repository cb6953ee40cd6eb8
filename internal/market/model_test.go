package market

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestColdStartValidate(t *testing.T) {
	good := []ColdStart{
		{}, {Dist: "fixed", Mean: 60}, {Dist: "exp", Mean: 45},
		{Dist: "uniform", Min: 10, Max: 10}, {Dist: "uniform", Min: 0, Max: 90},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v rejected: %v", c, err)
		}
	}
	bad := []ColdStart{
		{Mean: -1}, {Dist: "exp", Mean: -5},
		{Dist: "uniform", Min: -1, Max: 5}, {Dist: "uniform", Min: 9, Max: 3},
		{Dist: "gaussian", Mean: 60},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v accepted", c)
		}
	}
}

func TestColdStartDraws(t *testing.T) {
	// The zero value is the paper's pre-booted setting: no delay, ever.
	if d := (ColdStart{}).Draw(7, 3); d != 0 {
		t.Errorf("zero-value cold start drew %v", d)
	}
	if d := (ColdStart{Dist: "fixed", Mean: 45}).Draw(7, 3); d != 45 {
		t.Errorf("fixed cold start drew %v", d)
	}
	u := ColdStart{Dist: "uniform", Min: 30, Max: 120}
	for id := 0; id < 50; id++ {
		d := u.Draw(7, id)
		if d < 30 || d > 120 {
			t.Fatalf("uniform draw %v outside [30, 120]", d)
		}
		// Hash-derived: same (seed, id) always agrees, independent of order.
		if u.Draw(7, id) != d {
			t.Fatal("uniform draw not replayable")
		}
	}
	if u.Draw(7, 1) == u.Draw(8, 1) && u.Draw(7, 2) == u.Draw(8, 2) {
		t.Error("uniform draws ignore the seed")
	}
	e := ColdStart{Dist: "exp", Mean: 60}
	var sum float64
	for id := 0; id < 400; id++ {
		d := e.Draw(3, id)
		if d < 0 {
			t.Fatalf("negative exponential draw %v", d)
		}
		sum += d
	}
	if mean := sum / 400; mean < 30 || mean > 120 {
		t.Errorf("exponential sample mean %v far from 60", mean)
	}
	if (ColdStart{Dist: "exp"}).Draw(3, 1) != 0 {
		t.Error("zero-mean exponential drew nonzero")
	}
}

func TestModelValidate(t *testing.T) {
	var nilModel *Model
	if err := nilModel.Validate(); err != nil {
		t.Errorf("nil model rejected: %v", err)
	}
	bad := []*Model{
		{SpotDiscount: -0.1},
		{SpotDiscount: 1.5},
		{WarmPool: -1},
		{Cold: ColdStart{Dist: "gaussian"}},
		{Trace: &Trace{Times: []float64{5}, Mult: []float64{1}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
}

func TestModelTerms(t *testing.T) {
	var nilModel *Model
	if nilModel.Terms(0, false) != nil {
		t.Error("nil model issued a lease")
	}
	m := &Model{Market: Spot, Gran: PerSecond, SpotDiscount: 0.2,
		Trace: Synthetic(2, 8, 900, 0.2), Fallback: true,
		Cold: ColdStart{Dist: "fixed", Mean: 30}, Seed: 5}
	l := m.Terms(3, true)
	if !l.IsSpot() || l.Gran != PerSecond || !l.IsWarm() || !l.HasFallback() {
		t.Errorf("terms dropped model fields: %+v", l)
	}
	if l.ColdStart != 30 || l.Discount != 0.2 || l.Trace != m.Trace {
		t.Errorf("terms mismatch: %+v", l)
	}
	// A zero-value cold-start model issues leases with no delay.
	if l := (&Model{}).Terms(1, false); l.ColdStartDelay() != 0 {
		t.Errorf("zero cold-start model drew %v", l.ColdStartDelay())
	}
}

func TestModelString(t *testing.T) {
	var nilModel *Model
	if nilModel.String() != "market{none}" {
		t.Errorf("nil model string %q", nilModel.String())
	}
	s := mustPreset(t, "spot-fallback").String()
	for _, want := range []string{"spot", "discount", "fallback", "trace"} {
		if !strings.Contains(s, want) {
			t.Errorf("spot-fallback string %q missing %q", s, want)
		}
	}
	if w := mustPreset(t, "warm").String(); !strings.Contains(w, "warm: 4") {
		t.Errorf("warm preset string %q", w)
	}
}

func mustPreset(t *testing.T, name string) *Model {
	t.Helper()
	m, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 || names[0] != "none" {
		t.Fatalf("preset names %v: want alphabetical with none first", names)
	}
	for _, name := range names {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if (m == nil) != (name == "none") {
			t.Errorf("Preset(%q) nil-ness wrong", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if m, err := Preset("SPOT"); err != nil || m == nil {
		t.Error("preset lookup not case-insensitive")
	}
	if _, err := Preset("bazaar"); err == nil {
		t.Error("unknown preset accepted")
	}
	if d := Default(); d.Validate() != nil || d != Default() {
		t.Error("Default not a stable valid model")
	}
}

// TestPresetMatchesPresets checks that the one-preset lookup reads the
// preset table: for every name, Preset builds what the table's entry
// builds, a fresh model on every call, and "none" costs nothing.
func TestPresetMatchesPresets(t *testing.T) {
	names := PresetNames()
	if len(names) != len(presets) || !sort.StringsAreSorted(names) {
		t.Fatalf("PresetNames() = %v for %d presets", names, len(presets))
	}
	for i, name := range names {
		want := presets[i].build()
		a, errA := Preset(name)
		b, errB := Preset(strings.ToUpper(name))
		if errA != nil || errB != nil {
			t.Fatalf("Preset(%q): %v, %v", name, errA, errB)
		}
		if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
			t.Errorf("Preset(%q) differs from its table entry", name)
		}
		if a != nil && (a == b || a == want || a.Trace != nil && a.Trace == b.Trace) {
			t.Errorf("Preset(%q) shares its model with another call", name)
		}
	}
	if n := testing.AllocsPerRun(10, func() { Preset("none") }); n != 0 {
		t.Errorf(`Preset("none") allocates %v times`, n)
	}
}
