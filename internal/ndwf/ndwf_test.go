package ndwf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/validate"
)

// pipeline returns a template exercising all four constructs: an ingest
// task, a parallel section, an XOR quality split, and a refinement loop.
func pipeline() Template {
	return Template{
		Name: "nd-pipeline",
		Root: Seq{
			Task{Name: "ingest", Work: 300},
			Par{
				Task{Name: "analyzeA", Work: 1200},
				Task{Name: "analyzeB", Work: 900},
			},
			Xor{
				Branches: []Block{
					Task{Name: "fast-path", Work: 200},
					Seq{Task{Name: "slow-1", Work: 800}, Task{Name: "slow-2", Work: 700}},
				},
				Probs: []float64{0.7, 0.3},
			},
			Loop{Body: Task{Name: "refine", Work: 400}, Repeat: 0.5, Max: 4},
			Task{Name: "publish", Work: 100},
		},
	}
}

func TestSampleProducesValidDAGs(t *testing.T) {
	tpl := pipeline()
	for seed := uint64(0); seed < 50; seed++ {
		w, err := tpl.Sample(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := w.Freeze(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Base structure: ingest + 2 analyses + publish = 4 fixed tasks;
		// XOR adds 1 or 2; loop adds 1..4.
		if w.Len() < 6 || w.Len() > 10 {
			t.Errorf("seed %d: %d tasks outside [6, 10]", seed, w.Len())
		}
	}
}

func TestSampleIsDeterministicPerSeed(t *testing.T) {
	tpl := pipeline()
	a, err := tpl.Sample(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tpl.Sample(9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.TotalWork() != b.TotalWork() {
		t.Error("same seed produced different instances")
	}
}

func TestSampleVariesAcrossSeeds(t *testing.T) {
	tpl := pipeline()
	sizes := map[int]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		w, err := tpl.Sample(seed)
		if err != nil {
			t.Fatal(err)
		}
		sizes[w.Len()] = true
	}
	if len(sizes) < 3 {
		t.Errorf("only %d distinct instance sizes over 40 seeds; splits/loops not firing", len(sizes))
	}
}

func TestXorBranchFrequencies(t *testing.T) {
	tpl := Template{Name: "xor", Root: Seq{
		Task{Name: "a", Work: 1},
		Xor{
			Branches: []Block{Task{Name: "b", Work: 1}, Seq{Task{Name: "c1", Work: 1}, Task{Name: "c2", Work: 1}}},
			Probs:    []float64{0.8, 0.2},
		},
	}}
	twoBranch := 0
	const n = 2000
	for seed := uint64(0); seed < n; seed++ {
		w, err := tpl.Sample(seed)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() == 3 { // a + c1 + c2
			twoBranch++
		}
	}
	frac := float64(twoBranch) / n
	if math.Abs(frac-0.2) > 0.03 {
		t.Errorf("slow branch frequency %v, want ~0.2", frac)
	}
}

func TestLoopIterationBounds(t *testing.T) {
	tpl := Template{Name: "loop", Root: Loop{Body: Task{Name: "x", Work: 1}, Repeat: 0.9, Max: 5}}
	seen := map[int]bool{}
	for seed := uint64(0); seed < 300; seed++ {
		w, err := tpl.Sample(seed)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() < 1 || w.Len() > 5 {
			t.Fatalf("loop produced %d iterations outside [1, 5]", w.Len())
		}
		seen[w.Len()] = true
	}
	if !seen[5] {
		t.Error("repeat=0.9 never hit the max bound over 300 samples")
	}
	if !seen[1] {
		t.Error("repeat=0.9 never exited after one iteration over 300 samples")
	}
}

func TestValidateRejectsBadTemplates(t *testing.T) {
	cases := map[string]Template{
		"no root":    {Name: "x"},
		"empty seq":  {Name: "x", Root: Seq{}},
		"empty par":  {Name: "x", Root: Par{}},
		"bad probs":  {Name: "x", Root: Xor{Branches: []Block{Task{Work: 1}}, Probs: []float64{0.5}}},
		"prob count": {Name: "x", Root: Xor{Branches: []Block{Task{Work: 1}}, Probs: []float64{0.5, 0.5}}},
		"neg prob": {Name: "x", Root: Xor{
			Branches: []Block{Task{Work: 1}, Task{Work: 1}}, Probs: []float64{-0.5, 1.5}}},
		"bad loop p":    {Name: "x", Root: Loop{Body: Task{Work: 1}, Repeat: 1.0, Max: 3}},
		"bad loop max":  {Name: "x", Root: Loop{Body: Task{Work: 1}, Repeat: 0.5, Max: 0}},
		"loop no body":  {Name: "x", Root: Loop{Repeat: 0.5, Max: 3}},
		"negative work": {Name: "x", Root: Task{Work: -1}},
	}
	for name, tpl := range cases {
		if err := tpl.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// Property: every sampled instance schedules validly under the whole
// catalog and agrees with the simulator.
func TestQuickSampledInstancesScheduleEverywhere(t *testing.T) {
	tpl := pipeline()
	cat := sched.Catalog()
	f := func(seed uint64) bool {
		w, err := tpl.Sample(seed)
		if err != nil {
			return false
		}
		for _, alg := range cat {
			s, err := alg.Schedule(w.Clone(), sched.DefaultOptions())
			if err != nil {
				return false
			}
			if validate.PlanSim(s) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSampleAllocs guards the sampling layer: the expansion's arena and
// span stack live in one expander, and the workflow keeps flat lists until
// Freeze lays out its rows. A fresh sample measures 18 allocations for
// order and 20 for montage2 (61 and 91 with per-block tail slices and
// map-backed edges); the ceilings leave ~30% headroom. A Sampler that has
// sampled both templates before (AllocsPerRun's warm-up run) lays every
// instance out in the arrays they left, so it allocates only the
// instance's name.
func TestSampleAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		max  float64
	}{{"order", 24}, {"montage2", 26}} {
		tpl, err := Named(c.name)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(0)
		allocs := testing.AllocsPerRun(500, func() {
			seed++
			if _, err := tpl.Sample(seed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: %.1f allocations per sample, want at most %v", c.name, allocs, c.max)
		}
	}
	var reused Sampler
	co, _ := Order().Check()
	cm, _ := MontageND(2).Check()
	seed := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		seed++
		for _, c := range []Checked{co, cm} {
			if _, err := reused.Sample(c, seed); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 2 {
		t.Errorf("a reused Sampler: %.1f allocations per two samples, want at most 2 (their names)", allocs)
	}
}
