package frontier

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workflows"
)

func smallConfig() Config {
	return Config{
		Widths: []int{1, 4},
		Depth:  2,
		Alphas: []float64{1.5, 3.0},
		Scales: []float64{0.2, 1.2},
		Seed:   7,
		Reps:   2,
	}
}

func TestExploreCoversGrid(t *testing.T) {
	cfg := smallConfig()
	cells, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Widths) * len(cfg.Alphas) * len(cfg.Scales)
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for _, c := range cells {
		for _, g := range metrics.Goals() {
			if c.Winner[g] == "" {
				t.Errorf("%s: no winner for %v", c.Point, g)
			}
		}
	}
}

func TestExploreIsDeterministic(t *testing.T) {
	a, err := Explore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for _, g := range metrics.Goals() {
			if a[i].Winner[g] != b[i].Winner[g] || a[i].Score[g] != b[i].Score[g] {
				t.Fatalf("cell %d differs between identical runs", i)
			}
		}
	}
}

func TestExploreSavingsWinnerActuallySaves(t *testing.T) {
	cells, err := Explore(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Score[metrics.Savings] < 0 {
			t.Errorf("%s: best savings %v is negative — even OneVMperTask-s (score 0) beats it",
				c.Point, c.Score[metrics.Savings])
		}
	}
}

func TestExploreWidthOneBehavesSequential(t *testing.T) {
	// The width-1 column is a chain: the Gain winner there should achieve
	// nearly the full instance-speed-up gain (like the paper's Sequential
	// class), because there is no parallelism to lose.
	cfg := smallConfig()
	cfg.Widths = []int{1}
	cells, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Score[metrics.Gain] < 30 {
			t.Errorf("%s: best gain on a chain = %v, want >= 30 (speed-up driven)",
				c.Point, c.Score[metrics.Gain])
		}
	}
}

func TestExploreRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Alphas = nil
	if _, err := Explore(cfg); err == nil {
		t.Error("empty axis accepted")
	}
	cfg = smallConfig()
	cfg.Alphas = []float64{1.0}
	if _, err := Explore(cfg); err == nil {
		t.Error("alpha=1 (infinite mean) accepted")
	}
}

// TestExploreRejectsBadAxes checks every axis before any cell runs: a
// bad value is an error wherever it sits on its axis, never a panic in
// the workflow builder or the metrics.
func TestExploreRejectsBadAxes(t *testing.T) {
	for _, c := range []struct {
		name   string
		widths []int
		alphas []float64
		scales []float64
	}{
		{"width 0", []int{0}, nil, nil},
		{"width -3", []int{-3}, nil, nil},
		{"width 0 after a good one", []int{1, 0}, nil, nil},
		{"alpha 1", nil, []float64{1}, nil},
		{"alpha 0.5", nil, []float64{0.5}, nil},
		{"alpha NaN", nil, []float64{math.NaN()}, nil},
		{"alpha +Inf", nil, []float64{math.Inf(1)}, nil},
		{"alpha 1 after a good one", nil, []float64{2, 1}, nil},
		{"scale 0", nil, nil, []float64{0}},
		{"scale -1", nil, nil, []float64{-1}},
		{"scale NaN", nil, nil, []float64{math.NaN()}},
		{"scale +Inf", nil, nil, []float64{math.Inf(1)}},
		{"scale overflowing the BTU", nil, nil, []float64{1e306}},
		{"scale 0 after a good one", nil, nil, []float64{0.2, 0}},
	} {
		cfg := smallConfig()
		if c.widths != nil {
			cfg.Widths = c.widths
		}
		if c.alphas != nil {
			cfg.Alphas = c.alphas
		}
		if c.scales != nil {
			cfg.Scales = c.scales
		}
		cells, err := Explore(cfg)
		if err == nil || cells != nil {
			t.Errorf("%s: Explore = %d cells, %v; want an error", c.name, len(cells), err)
		}
	}
}

func TestRenderShowsAllGoalsAndCells(t *testing.T) {
	cfg := smallConfig()
	cells, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(cells, cfg)
	for _, g := range metrics.Goals() {
		if !strings.Contains(out, g.String()) {
			t.Errorf("render missing goal %v", g)
		}
	}
	if strings.Contains(out, "?") {
		t.Error("render has unresolved cells")
	}
}

func TestLayeredGenerator(t *testing.T) {
	w := workflows.Layered(3, 4)
	if w.Len() != 3*4+2 {
		t.Errorf("Len = %d, want 14", w.Len())
	}
	if w.Depth() != 5 {
		t.Errorf("Depth = %d, want 5", w.Depth())
	}
	if w.MaxParallelism() != 4 {
		t.Errorf("MaxParallelism = %d, want 4", w.MaxParallelism())
	}
	if len(w.Entries()) != 1 || len(w.Exits()) != 1 {
		t.Errorf("entries/exits = %d/%d", len(w.Entries()), len(w.Exits()))
	}
}

func TestLayeredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	workflows.Layered(0, 3)
}

func TestDataCrossover(t *testing.T) {
	pts, crossover, err := DataCrossover(workflows.PaperMapReduce(), 4, 4096, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	// CCR strictly increases with the data factor.
	for i := 1; i < len(pts); i++ {
		if pts[i].CCR <= pts[i-1].CCR {
			t.Errorf("CCR not increasing at factor %v", pts[i].DataFactor)
		}
	}
	// At factor 1 (the paper's CPU-bound regime) parallelism wins; at high
	// CCR the transfer-free single VM must take over.
	if pts[0].ColocationWins() {
		t.Error("co-location wins the CPU-bound regime — transfers mispriced")
	}
	if crossover == 0 {
		t.Errorf("no crossover up to factor 4096 (last: parallel %v vs colocated %v at CCR %v)",
			pts[len(pts)-1].Parallel, pts[len(pts)-1].Colocated, pts[len(pts)-1].CCR)
	}
	out := RenderCrossover(pts)
	if !strings.Contains(out, "winner") || !strings.Contains(out, "colocated") {
		t.Error("render incomplete")
	}
}

func TestDataCrossoverRejectsBadFactor(t *testing.T) {
	if _, _, err := DataCrossover(workflows.PaperMapReduce(), 1, 0.5, sched.Options{}); err == nil {
		t.Error("maxFactor < 1 accepted")
	}
}
