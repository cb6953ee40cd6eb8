package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/dag/dagtest"
	"repro/internal/plan"
	"repro/internal/sched"
)

func twoSchedules(t *testing.T) (base, fast *plan.Schedule) {
	t.Helper()
	w := dagtest.Chain(4, 1000)
	var err error
	base, err = sched.Baseline().Schedule(w, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A single-VM schedule: same makespan, quarter the cost.
	b := plan.NewBuilder(w.Clone(), cloud.NewPlatform(), cloud.USEastVirginia)
	vm := b.NewVM(cloud.Small)
	for _, id := range w.TopoOrder() {
		b.PlaceOn(id, vm)
	}
	return base, b.Done()
}

func TestCompareBaselineAgainstItself(t *testing.T) {
	base, _ := twoSchedules(t)
	p := Compare("OneVMperTask-s", base, base)
	if p.GainPct != 0 || p.LossPct != 0 {
		t.Errorf("self-comparison = %+v, want zero gain/loss", p)
	}
	if !p.InTargetSquare() {
		t.Error("baseline must sit on the target square corner")
	}
}

func TestCompareCheaperSchedule(t *testing.T) {
	base, cheap := twoSchedules(t)
	p := Compare("StartParExceed-s", cheap, base)
	if p.GainPct != 0 {
		t.Errorf("gain = %v, want 0 (same makespan)", p.GainPct)
	}
	// Base: 4 VMs x 1 BTU = 0.32; cheap: 2 BTUs = 0.16 -> 50% savings.
	if math.Abs(p.SavingsPct()-50) > 1e-9 {
		t.Errorf("savings = %v, want 50", p.SavingsPct())
	}
	if !p.InTargetSquare() {
		t.Error("cheaper same-speed schedule must be in the target square")
	}
	if p.VMCount != 1 || p.Cost != 0.16 {
		t.Errorf("point = %+v", p)
	}
}

func TestComparePanicsOnDegenerateBaseline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Compare("x", &plan.Schedule{}, &plan.Schedule{})
}

func TestClassify(t *testing.T) {
	cases := []struct {
		gain, loss float64
		want       Category
	}{
		{30, -60, SavingsDominant}, // savings 60 > gain 30
		{60, -30, GainDominant},
		{40, -42, Balanced},
		{0, 0, Balanced},
		{-5, -50, OutOfSquare}, // slower than baseline
		{50, 10, OutOfSquare},  // more expensive than baseline
	}
	for _, c := range cases {
		p := Point{GainPct: c.gain, LossPct: c.loss}
		if got := Classify(p); got != c.want {
			t.Errorf("Classify(gain=%v, loss=%v) = %v, want %v", c.gain, c.loss, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		SavingsDominant: "0<=gain<savings",
		GainDominant:    "0<=savings<gain",
		Balanced:        "gain~savings",
		OutOfSquare:     "out-of-square",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestLossInterval(t *testing.T) {
	pts := []Point{{LossPct: -62}, {LossPct: 0}, {LossPct: -28}}
	iv := LossInterval(pts)
	if iv.Lo != -62 || iv.Hi != 0 {
		t.Errorf("interval = %v", iv)
	}
	if iv.String() != "[-62, 0]" {
		t.Errorf("String = %q", iv.String())
	}
}

func TestMeanGain(t *testing.T) {
	pts := []Point{{GainPct: 30}, {GainPct: 40}, {GainPct: 50}}
	if got := MeanGain(pts); got != 40 {
		t.Errorf("MeanGain = %v", got)
	}
}

func TestEmptyAggregatesPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"LossInterval": func() { LossInterval(nil) },
		"MeanGain":     func() { MeanGain(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: gain and savings are antisymmetric under swapping the roles of
// schedule and baseline in the sense that a positive-gain point flips sign.
func TestQuickCompareSigns(t *testing.T) {
	base, cheap := twoSchedules(t)
	fwd := Compare("f", cheap, base)
	rev := Compare("r", base, cheap)
	if fwd.SavingsPct() <= 0 || rev.SavingsPct() >= 0 {
		t.Errorf("savings signs: fwd %v, rev %v", fwd.SavingsPct(), rev.SavingsPct())
	}
	f := func(mkScale uint8) bool {
		p := Point{GainPct: float64(mkScale) - 100, LossPct: 0}
		c := Classify(p)
		if p.GainPct < 0 {
			return c == OutOfSquare
		}
		return c != OutOfSquare
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
