package fuzzcheck

import "testing"

// TestRetypeCorpus runs the incremental-pricing property over every
// committed corpus case.
func TestRetypeCorpus(t *testing.T) {
	for name, c := range seedCorpus(t) {
		if err := CheckRetype(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzRetype is the native target for the incremental pricer: any mutated
// tuple normalizes into a case whose retype walks must price every trial
// exactly as a full replay does.
func FuzzRetype(f *testing.F) {
	for _, c := range seedCorpus(f) {
		c = c.Normalize()
		f.Add(c.Tasks, c.Seed, c.EdgePct, c.ZeroWork, c.BTUWork,
			c.Scenario, c.Strategy, c.Fault, c.FaultSeed)
	}
	f.Fuzz(func(t *testing.T, tasks int, seed uint64, edgePct int,
		zeroWork, btuWork bool, scenario, strategy, faultIdx int, faultSeed uint64) {
		c := caseFrom(tasks, seed, edgePct, zeroWork, btuWork, scenario, strategy, faultIdx, faultSeed)
		if err := CheckRetype(c); err != nil {
			t.Fatal(err)
		}
	})
}
