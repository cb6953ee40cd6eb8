package sim

import (
	"math"
	"testing"

	"repro/internal/dag/dagtest"
	"repro/internal/fault"
	"repro/internal/sched"
)

// TestScreenTieIsNotQuiet pins the screen's tie rule on a one-task,
// one-VM schedule built so that its lease's crash draw lands exactly on
// the slot's end. At the tie the replay's event order decides (here the
// crash, armed first, wins), so the screen must send the schedule to the
// full replay; so must a slot ending within cloud.Eps of the loss. A
// slot ending a second earlier screens quiet, and its replay returns the
// plan's makespan and rental cost bit for bit.
func TestScreenTieIsNotQuiet(t *testing.T) {
	cfg := Config{Faults: &fault.Config{CrashRate: 1, Recovery: fault.Retry, Seed: 5}}
	inj, err := cfg.injector()
	if err != nil {
		t.Fatal(err)
	}
	crash, preempt := inj.Losses(0, false)
	if math.IsInf(crash, 1) || !math.IsInf(preempt, 1) {
		t.Fatalf("losses (%v, %v): want a finite crash and no preemption", crash, preempt)
	}
	for _, tc := range []struct {
		name  string
		work  float64
		quiet bool
	}{
		{"tie", crash, false},
		{"within Eps", math.Nextafter(crash, 0), false},
		{"a second early", crash - 1, true},
	} {
		// Baseline rents one small VM, which runs work at unit speed, so
		// the slot is [0, work] and the lease is anchored at 0.
		s := mustSchedule(t, sched.Baseline(), dagtest.Chain(1, tc.work))
		if end := s.VMs[0].Slots[0].End; s.VMs[0].LeaseStart() != 0 || end != tc.work {
			t.Fatalf("%s: lease from %v, slot ends at %v; want 0 and %v",
				tc.name, s.VMs[0].LeaseStart(), end, tc.work)
		}
		screen, err := NewScreen(cfg, s.Workflow.Len())
		if err != nil {
			t.Fatal(err)
		}
		if got := screen.Quiet(s); got != tc.quiet {
			t.Errorf("%s: Quiet = %v, want %v", tc.name, got, tc.quiet)
		}
		res, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "tie" && res.VMCrashes != 1 {
			t.Errorf("tie: the replay saw %d crashes, want the crash to win the tie", res.VMCrashes)
		}
		if tc.quiet && (res.VMCrashes != 0 || !res.Completed ||
			res.Makespan != s.Makespan() || res.RentalCost != s.RentalCost()) {
			t.Errorf("%s: screened quiet, but the replay gave %+v against makespan %v, cost %v",
				tc.name, res, s.Makespan(), s.RentalCost())
		}
	}
}

// TestScreenScreensOnlyFaultyPrebootedReplays checks what NewScreen
// refuses to prove: replays with no active fault model or with a boot
// time do not follow the plan's timeline under faults, so nothing is
// screened quiet; an invalid fault config fails with Run's error.
func TestScreenScreensOnlyFaultyPrebootedReplays(t *testing.T) {
	s := mustSchedule(t, sched.Baseline(), dagtest.Chain(3, 100))
	calm := &fault.Config{CrashRate: 1e-9, Seed: 1}
	for _, cfg := range []Config{{}, {Faults: &fault.Config{}}, {Faults: calm, BootTime: 30}} {
		screen, err := NewScreen(cfg, s.Workflow.Len())
		if err != nil {
			t.Fatal(err)
		}
		if screen.Quiet(s) {
			t.Errorf("%+v: screened quiet", cfg)
		}
	}
	if screen, err := NewScreen(Config{Faults: calm}, s.Workflow.Len()); err != nil || !screen.Quiet(s) {
		t.Errorf("near-zero crash rate: Quiet = %v, err %v; want quiet", screen.Quiet(s), err)
	}
	bad := Config{Faults: &fault.Config{CrashRate: 1, TaskFailProb: 2}}
	_, runErr := Run(s, bad)
	if _, err := NewScreen(bad, s.Workflow.Len()); err == nil || runErr == nil || err.Error() != runErr.Error() {
		t.Errorf("invalid config: NewScreen error %v, Run error %v; want the same error", err, runErr)
	}
}
