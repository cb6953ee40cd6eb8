package fuzzcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// caseFrom assembles a Case from the primitive tuple of the fuzz-target
// signatures (the same order Encode writes).
func caseFrom(tasks int, seed uint64, edgePct int, zeroWork, btuWork bool,
	scenario, strategy, faultIdx int, faultSeed uint64) Case {
	return Case{
		Tasks: tasks, Seed: seed, EdgePct: edgePct,
		ZeroWork: zeroWork, BTUWork: btuWork,
		Scenario: scenario, Strategy: strategy,
		Fault: faultIdx, FaultSeed: faultSeed,
	}.Normalize()
}

// strategyIndex resolves a strategy name to its index in Strategies().
func strategyIndex(t testing.TB, name string) int {
	t.Helper()
	for i, n := range Strategies() {
		if n == name {
			return i
		}
	}
	t.Fatalf("unknown strategy %q", name)
	return -1
}

// seedCorpus returns the golden minimal reproducers, keyed by corpus file
// name. Each covers an edge class the harness historically got wrong or
// the catalog cannot reach: held leases, zero-work tasks, single-task
// DAGs, cross-region transfers, exact-BTU-boundary work, faulty replays
// under each recovery mode, and a warm lease the quiet-replay screen
// must anchor at 0.
func seedCorpus(t testing.TB) map[string]Case {
	return map[string]Case{
		"held-lease": {Tasks: 3, Seed: 7, EdgePct: 30,
			Strategy: strategyIndex(t, StrategyHeldTail), Fault: faultIndex("none")},
		"zero-work": {Tasks: 6, Seed: 11, EdgePct: 25, ZeroWork: true,
			Strategy: strategyIndex(t, "OneVMperTask-s"), Fault: faultIndex("none")},
		"single-task": {Tasks: 1, Seed: 1, Scenario: 2, // Best case
			Strategy: 0, Fault: faultIndex("none")},
		"xregion": {Tasks: 8, Seed: 13, EdgePct: 35, Scenario: 1, // Pareto
			Strategy: strategyIndex(t, StrategyXRegion), Fault: faultIndex("none")},
		"btu-boundary": {Tasks: 22, Seed: 5, EdgePct: 10, BTUWork: true,
			Strategy: strategyIndex(t, "AllParExceed-s"), Fault: faultIndex("none")},
		"calm-retry": {Tasks: 10, Seed: 3, EdgePct: 20, Scenario: 1,
			Strategy: strategyIndex(t, "OneVMperTask-s"), Fault: faultIndex("calm"), FaultSeed: 9},
		"hostile-resubmit": {Tasks: 12, Seed: 21, EdgePct: 30, Scenario: 3, // Worst case
			Strategy: strategyIndex(t, "AllParNotExceed-m"), Fault: faultIndex("hostile"), FaultSeed: 4},
		"spot-seconds": {Tasks: 9, Seed: 17, EdgePct: 25,
			Strategy: strategyIndex(t, StrategySpotSec), Fault: faultIndex("none")},
		"warm-minutes": {Tasks: 14, Seed: 29, EdgePct: 20, BTUWork: true,
			Strategy: strategyIndex(t, StrategyWarmMin), Fault: faultIndex("none")},
		"spot-preempted": {Tasks: 11, Seed: 23, EdgePct: 30, Scenario: 1,
			Strategy: strategyIndex(t, StrategySpotSec), Fault: faultIndex("preempt-mild"), FaultSeed: 6},
		"fallback-storm": {Tasks: 13, Seed: 19, EdgePct: 35,
			Strategy: strategyIndex(t, "SpotFallback"), Fault: faultIndex("preempt-storm"), FaultSeed: 8},
		"warm-crash": {Tasks: 10, Seed: 31, EdgePct: 25,
			Strategy: strategyIndex(t, "WarmPool4"), Fault: faultIndex("calm"), FaultSeed: 5},
		// A warm lease's crash lands before its last slot's end counted
		// from the lease's anchor at 0, but after it counted from the
		// first slot: a screen that anchored warm leases at their first
		// slot would call this replay quiet.
		"warm-anchor": {Tasks: 2, Seed: 3960506127101540984, EdgePct: 45, Scenario: 1, // Pareto
			Strategy: strategyIndex(t, StrategyWarmMin), Fault: faultIndex("flaky"), FaultSeed: 17496},
	}
}

// corpusDir returns the fuzz-target directory a case belongs to.
func corpusDir(c Case) string {
	if c.FaultName() == "none" {
		return "FuzzSchedule"
	}
	return "FuzzSimAgree"
}

// TestSeedCorpusPasses replays every golden reproducer deterministically.
// A failure here is a regression in the planner, the simulator or the
// accounting — exactly the divergences the corpus was minimized to pin.
func TestSeedCorpusPasses(t *testing.T) {
	for name, c := range seedCorpus(t) {
		if err := c.Run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSeedCorpusCommitted checks that each golden case is committed under
// testdata/fuzz/ in the native corpus encoding, so `go test` (and
// `go test -fuzz`) replay the same inputs this suite does. Regenerate
// with REGEN_CORPUS=1 after changing the catalog or the Case layout.
func TestSeedCorpusCommitted(t *testing.T) {
	for name, c := range seedCorpus(t) {
		path := filepath.Join("testdata", "fuzz", corpusDir(c), name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (run REGEN_CORPUS=1 go test ./internal/fuzzcheck/ -run TestRegenCorpus)", name, err)
			continue
		}
		if !bytes.Equal(got, Encode(c)) {
			t.Errorf("%s: committed corpus differs from Encode; regenerate with REGEN_CORPUS=1", name)
		}
	}
}

// TestRegenCorpus rewrites the committed corpus files from seedCorpus.
// Guarded by REGEN_CORPUS so a plain test run never writes.
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("REGEN_CORPUS") == "" {
		t.Skip("set REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	for name, c := range seedCorpus(t) {
		dir := filepath.Join("testdata", "fuzz", corpusDir(c))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), Encode(c), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomCasesPass(t *testing.T) {
	// A deterministic slice of the wffuzz stream; the CLI runs the same
	// cases, so a divergence found there reproduces here by index.
	n := 60
	if testing.Short() {
		n = 15
	}
	for i := 0; i < n; i++ {
		c := Random(1, i)
		if err := c.Run(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestRandomMarketCasesPass(t *testing.T) {
	// The market-focused stream behind `wffuzz -market`: every case rents
	// under market lease terms and most run a preemption preset.
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		c := RandomMarket(1, i)
		if err := c.Run(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestRandomMarketDrawsMarketStrategies(t *testing.T) {
	allowed := make(map[int]bool)
	for _, i := range marketStrategies() {
		allowed[i] = true
	}
	if len(allowed) < 4 {
		t.Fatalf("marketStrategies() has %d entries, want >= 4", len(allowed))
	}
	for i := 0; i < 100; i++ {
		c := RandomMarket(7, i)
		if !allowed[c.Strategy] {
			t.Fatalf("case %d drew non-market strategy %s", i, Strategies()[c.Strategy])
		}
		if name := c.FaultName(); name != "none" && name != "preempt-mild" && name != "preempt-storm" {
			t.Fatalf("case %d drew fault %q", i, name)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := Random(99, i)
		raw := Case{Tasks: -17 * i, Seed: uint64(i), EdgePct: 1000 - i,
			Scenario: -i, Strategy: 3 * i, Fault: i, FaultSeed: 1}
		n1 := raw.Normalize()
		if n2 := n1.Normalize(); n1 != n2 {
			t.Fatalf("Normalize not idempotent: %+v -> %+v", n1, n2)
		}
		if c != c.Normalize() {
			t.Fatalf("Random returned non-canonical case %+v", c)
		}
	}
}

func TestShrinkFindsMinimalTaskCount(t *testing.T) {
	// A synthetic predicate failing iff Tasks >= 7 and the fault preset is
	// active: Shrink must walk down to exactly 7 tasks and keep the fault.
	fails := func(c Case) bool {
		c = c.Normalize()
		return c.Tasks >= 7 && c.FaultName() != "none"
	}
	start := Case{Tasks: 33, Seed: 12345, EdgePct: 44, ZeroWork: true,
		BTUWork: true, Scenario: 4, Strategy: 9, Fault: faultIndex("hostile"),
		FaultSeed: 77}.Normalize()
	min := Shrink(start, fails)
	if min.Tasks != 7 {
		t.Errorf("shrunk to %d tasks, want 7", min.Tasks)
	}
	if min.FaultName() == "none" {
		t.Error("shrink dropped the fault the failure depends on")
	}
	if min.ZeroWork || min.BTUWork || min.EdgePct != 0 || min.Scenario != 0 {
		t.Errorf("irrelevant features survived shrinking: %+v", min)
	}
	if !fails(min) {
		t.Error("shrunk case no longer fails")
	}
}

func TestScenarioPoolMatchesWorkload(t *testing.T) {
	// The corpus addresses scenarios by index; pin the pool's order.
	want := []workload.Scenario{workload.AsIs, workload.Pareto,
		workload.BestCase, workload.WorstCase, workload.DataHeavy}
	got := scenarios()
	if len(got) != len(want) {
		t.Fatalf("scenario pool has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenarios()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// FuzzSchedule is the fault-free differential fuzz target: any input the
// fuzzer invents is normalized into a valid case and must pass the
// plan↔sim oracle. The committed corpus under testdata/fuzz/FuzzSchedule
// seeds it and doubles as a regression suite on plain `go test`.
func FuzzSchedule(f *testing.F) {
	for _, c := range seedCorpus(f) {
		if c.FaultName() != "none" {
			continue
		}
		c = c.Normalize()
		f.Add(c.Tasks, c.Seed, c.EdgePct, c.ZeroWork, c.BTUWork,
			c.Scenario, c.Strategy, c.Fault, c.FaultSeed)
	}
	none := faultIndex("none")
	f.Fuzz(func(t *testing.T, tasks int, seed uint64, edgePct int,
		zeroWork, btuWork bool, scenario, strategy, faultIdx int, faultSeed uint64) {
		c := caseFrom(tasks, seed, edgePct, zeroWork, btuWork, scenario, strategy, none, 0)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSimAgree is the fault-mode target: the case always runs with an
// active fault preset, exercising crash billing, retry/resubmit recovery
// and the reliability cross-check.
func FuzzSimAgree(f *testing.F) {
	for _, c := range seedCorpus(f) {
		if c.FaultName() == "none" {
			continue
		}
		c = c.Normalize()
		f.Add(c.Tasks, c.Seed, c.EdgePct, c.ZeroWork, c.BTUWork,
			c.Scenario, c.Strategy, c.Fault, c.FaultSeed)
	}
	f.Fuzz(func(t *testing.T, tasks int, seed uint64, edgePct int,
		zeroWork, btuWork bool, scenario, strategy, faultIdx int, faultSeed uint64) {
		c := caseFrom(tasks, seed, edgePct, zeroWork, btuWork, scenario, strategy, faultIdx, faultSeed)
		if c.FaultName() == "none" {
			c.Fault = faultIndex("calm")
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
