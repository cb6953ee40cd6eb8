package fault

import (
	"math"
	"testing"
)

func TestRecoveryParseRoundTrip(t *testing.T) {
	for _, r := range Recoveries() {
		got, err := ParseRecovery(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRecovery(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseRecovery("reboot-the-universe"); err == nil {
		t.Error("bogus recovery accepted")
	}
	if got, err := ParseRecovery("RESUBMIT"); err != nil || got != Resubmit {
		t.Errorf("case-insensitive parse = %v, %v", got, err)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	c := Config{CrashRate: 0.1}.Fill()
	if c.MaxRetries != DefaultMaxRetries {
		t.Errorf("MaxRetries = %d, want %d", c.MaxRetries, DefaultMaxRetries)
	}
	if c.BackoffS != DefaultBackoffS || c.MaxBackoffS != DefaultMaxBackoffS {
		t.Errorf("backoff = %v/%v, want defaults", c.BackoffS, c.MaxBackoffS)
	}
	// A negative MaxRetries means "no retries", not the default.
	if got := (Config{MaxRetries: -1}).Fill().MaxRetries; got != 0 {
		t.Errorf("Fill(MaxRetries: -1) = %d, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{CrashRate: -1},
		{TaskFailProb: -0.5},
		{TaskFailProb: 1.5},
		{BackoffS: -3},
		{MaxBackoffS: -3},
		{RebootS: -1},
		{Recovery: Recovery(42)},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
	if err := (Config{CrashRate: 0.3, TaskFailProb: 0.1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestActive(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Active() {
		t.Error("nil config active")
	}
	if (&Config{}).Active() {
		t.Error("zero config active")
	}
	if !(&Config{CrashRate: 0.01}).Active() || !(&Config{TaskFailProb: 0.01}).Active() {
		t.Error("non-zero rates inactive")
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	in, err := NewInjector(Config{TaskFailProb: 0.5, BackoffS: 10, MaxBackoffS: 45})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 40, 45, 45}
	for k, w := range want {
		if got := in.Backoff(k + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", k+1, got, w)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{CrashRate: 0.2, TaskFailProb: 0.3, Seed: 99}
	a, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewInjector(cfg)
	for inc := uint64(0); inc < 50; inc++ {
		if a.crashAfter(inc) != b.crashAfter(inc) {
			t.Fatalf("crashAfter(%d) differs between equal injectors", inc)
		}
	}
	for task := 0; task < 20; task++ {
		for attempt := 1; attempt <= 3; attempt++ {
			af, afr := a.AttemptFails(task, attempt)
			bf, bfr := b.AttemptFails(task, attempt)
			if af != bf || afr != bfr {
				t.Fatalf("AttemptFails(%d, %d) differs", task, attempt)
			}
		}
	}
	// Draws are order-independent: asking again returns the same value.
	if a.crashAfter(7) != a.crashAfter(7) {
		t.Error("crashAfter is not a pure function of its identity")
	}
}

func TestInjectorSeedMatters(t *testing.T) {
	a, _ := NewInjector(Config{CrashRate: 0.2, Seed: 1})
	b, _ := NewInjector(Config{CrashRate: 0.2, Seed: 2})
	same := 0
	for inc := uint64(0); inc < 32; inc++ {
		if a.crashAfter(inc) == b.crashAfter(inc) {
			same++
		}
	}
	if same == 32 {
		t.Error("different seeds produced identical crash streams")
	}
}

func TestCrashAfterExponentialMean(t *testing.T) {
	// Rate 1 crash per VM-hour: mean lifetime 3600 s. The empirical mean
	// over many incarnations must land near it.
	in, _ := NewInjector(Config{CrashRate: 1, Seed: 5})
	const n = 20000
	var sum float64
	for inc := uint64(0); inc < n; inc++ {
		life := in.crashAfter(inc)
		if life <= 0 || math.IsInf(life, 1) {
			t.Fatalf("crashAfter(%d) = %v", inc, life)
		}
		sum += life
	}
	mean := sum / n
	if mean < 3600*0.95 || mean > 3600*1.05 {
		t.Errorf("empirical mean lifetime %v, want ~3600", mean)
	}
}

func TestCrashAfterZeroRateNeverCrashes(t *testing.T) {
	in, _ := NewInjector(Config{TaskFailProb: 0.5})
	for inc := uint64(0); inc < 100; inc++ {
		if !math.IsInf(in.crashAfter(inc), 1) {
			t.Fatalf("zero-rate injector crashed incarnation %d", inc)
		}
	}
}

func TestAttemptFailsFrequency(t *testing.T) {
	in, _ := NewInjector(Config{TaskFailProb: 0.25, Seed: 3})
	const n = 20000
	fails := 0
	for task := 0; task < n; task++ {
		if failed, frac := in.AttemptFails(task, 1); failed {
			fails++
			if frac < 0 || frac >= 1 {
				t.Fatalf("failure fraction %v outside [0, 1)", frac)
			}
		}
	}
	got := float64(fails) / n
	if got < 0.22 || got > 0.28 {
		t.Errorf("empirical failure rate %v, want ~0.25", got)
	}
}

func TestCellSeedSeparatesCells(t *testing.T) {
	seen := map[uint64]string{}
	for _, wf := range []string{"Montage", "CSTEM"} {
		for _, sc := range []string{"Pareto", "Best case"} {
			for _, alg := range []string{"HEFT-s", "GAIN"} {
				s := CellSeed(42, wf, sc, alg)
				if prev, dup := seen[s]; dup {
					t.Errorf("cells %q and %s/%s/%s share seed %d", prev, wf, sc, alg, s)
				}
				seen[s] = wf + "/" + sc + "/" + alg
			}
		}
	}
	if CellSeed(1, "a") == CellSeed(2, "a") {
		t.Error("CellSeed ignores the base seed")
	}
	if CellSeed(1, "ab", "c") == CellSeed(1, "a", "bc") {
		t.Error("CellSeed concatenates parts ambiguously")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		c, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := c.Fill().Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if c, err := Preset("none"); err != nil || c.Active() {
		t.Errorf("Preset(none) = %+v, %v; want inactive", c, err)
	}
	if _, err := Preset("apocalypse"); err == nil {
		t.Error("unknown preset accepted")
	}
}
