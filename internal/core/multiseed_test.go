package core

import (
	"testing"
)

func TestMultiSeedShapes(t *testing.T) {
	rows, err := MultiSeed(Config{}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 4 workflows x 19 strategies.
	if len(rows) != 4*19 {
		t.Fatalf("rows = %d, want 76", len(rows))
	}
	for _, r := range rows {
		if r.Gain.N != 5 || r.Loss.N != 5 {
			t.Fatalf("%s/%s: %d samples, want 5", r.Workflow, r.Strategy, r.Gain.N)
		}
		if r.InSquareFraction < 0 || r.InSquareFraction > 1 {
			t.Errorf("%s/%s: fraction %v", r.Workflow, r.Strategy, r.InSquareFraction)
		}
	}
}

func TestMultiSeedBaselineAlwaysAtOrigin(t *testing.T) {
	rows, err := MultiSeed(Config{}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Strategy != "OneVMperTask-s" {
			continue
		}
		if r.Gain.Min != 0 || r.Gain.Max != 0 || r.Loss.Min != 0 || r.Loss.Max != 0 {
			t.Errorf("%s: baseline moved: gain [%v, %v], loss [%v, %v]",
				r.Workflow, r.Gain.Min, r.Gain.Max, r.Loss.Min, r.Loss.Max)
		}
		if r.InSquareFraction != 1 {
			t.Errorf("%s: baseline in-square fraction %v", r.Workflow, r.InSquareFraction)
		}
	}
}

// The robustness claim behind Table V: the AllPar small/medium strategies
// stay in (or at the edge of) the target square across draws, while
// OneVMperTask-m/l never enter it.
func TestMultiSeedStableClassification(t *testing.T) {
	rows, err := MultiSeed(Config{}, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Strategy {
		case "AllParExceed-s":
			// Gains hover at 0 (speed-up 1) and the strategy saves money
			// on average — occasional draws may lose a little when BTU
			// tails stack up, but the mean stays on the savings side.
			if r.Loss.Mean > 1e-9 {
				t.Errorf("%s/%s: mean loss %v > 0", r.Workflow, r.Strategy, r.Loss.Mean)
			}
		case "OneVMperTask-m", "OneVMperTask-l":
			if r.InSquareFraction > 0 {
				t.Errorf("%s/%s: entered the target square (fraction %v)",
					r.Workflow, r.Strategy, r.InSquareFraction)
			}
		case "AllPar1LnSDyn":
			if r.Loss.Mean > 1e-9 {
				t.Errorf("%s/%s: mean loss %v > 0", r.Workflow, r.Strategy, r.Loss.Mean)
			}
		}
	}
	// The AllPar medium gain is stable across draws: std below 2 points.
	for _, r := range rows {
		if r.Strategy == "AllParExceed-m" && r.Gain.Std > 2 {
			t.Errorf("%s: AllParExceed-m gain std %v, want < 2 (Table IV stability)",
				r.Workflow, r.Gain.Std)
		}
	}
}

func TestMultiSeedRejectsBadCount(t *testing.T) {
	if _, err := MultiSeed(Config{}, 0, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMultiSeedConfidenceIntervals(t *testing.T) {
	rows, err := MultiSeed(Config{}, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.GainCI.Contains(r.Gain.Mean) {
			t.Errorf("%s/%s: gain CI %v misses mean %v", r.Workflow, r.Strategy, r.GainCI, r.Gain.Mean)
		}
		if !r.LossCI.Contains(r.Loss.Mean) {
			t.Errorf("%s/%s: loss CI %v misses mean %v", r.Workflow, r.Strategy, r.LossCI, r.Loss.Mean)
		}
		if r.GainCI.Lo > r.GainCI.Hi || r.LossCI.Lo > r.LossCI.Hi {
			t.Errorf("%s/%s: inverted CI", r.Workflow, r.Strategy)
		}
	}
}
