package ndwf_test

import (
	"math"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/ndwf"
)

func TestExpectedIterations(t *testing.T) {
	cases := []struct {
		p    float64
		max  int
		want int
	}{
		{0, 5, 1},      // never repeats
		{0.5, 2, 2},    // E = 1*0.5 + 2*0.5 = 1.5 -> 2
		{0.9, 10, 7},   // long loops
		{0.999, 3, 3},  // cap dominates
		{0.0001, 8, 1}, // almost never
	}
	for _, c := range cases {
		mean, _ := ndwf.Loop{Body: ndwf.Task{}, Repeat: c.p, Max: c.max}.Iterations()
		if got := int(math.Round(mean)); got != c.want {
			t.Errorf("round(E[N]) at p=%v, max=%d = %d, want %d", c.p, c.max, got, c.want)
		}
	}
}

// TestExpectedTasks holds ExpectedTasks to the task counts of the
// expected planning DAG it replaced, which built every Xor branch and
// unrolled each Loop to its rounded expected iteration count. The counts
// were recorded from that DAG's Len on the built-in templates and on
// fuzzcheck.RandomTemplate(seed, 2+seed%30) for seeds 0 to 239.
func TestExpectedTasks(t *testing.T) {
	builtin := map[string]int{
		"order": 8, "montage": 24, "montage1": 9, "montage2": 12, "montage3": 15,
		"montage4": 18, "montage5": 21, "montage6": 24, "montage7": 27, "montage8": 30,
		"montage9": 33, "montage10": 36, "montage11": 39, "montage12": 42, "montage30": 96,
	}
	for _, name := range ndwf.TemplateNames() {
		if _, ok := builtin[name]; !ok {
			t.Errorf("built-in template %q has no recorded count", name)
		}
	}
	for name, want := range builtin {
		tpl, err := ndwf.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tpl.ExpectedTasks(); err != nil || got != want {
			t.Errorf("%s: ExpectedTasks = %d, %v; want %d", name, got, err, want)
		}
	}
	random := [240]int{
		1, 1, 1, 2, 1, 2, 5, 4, 1, 1, 1, 6, 6, 9, 7, 1, 1, 20, 1, 4,
		16, 10, 16, 1, 15, 10, 1, 1, 1, 11, 2, 2, 2, 2, 1, 1, 1, 1, 2, 8,
		1, 3, 9, 1, 5, 1, 16, 1, 1, 10, 3, 1, 16, 1, 10, 14, 1, 11, 21, 14,
		2, 1, 1, 2, 4, 3, 5, 5, 1, 12, 2, 2, 6, 8, 4, 4, 1, 5, 1, 1,
		1, 1, 6, 15, 6, 10, 1, 3, 1, 11, 1, 1, 2, 4, 1, 1, 5, 12, 4, 1,
		9, 3, 9, 5, 1, 1, 1, 6, 6, 9, 3, 1, 11, 1, 2, 5, 15, 3, 9, 1,
		1, 1, 3, 3, 3, 3, 5, 1, 6, 6, 10, 1, 8, 2, 1, 9, 1, 8, 1, 6,
		7, 13, 1, 1, 10, 13, 5, 4, 1, 1, 2, 1, 1, 1, 1, 5, 1, 1, 8, 2,
		4, 8, 9, 7, 10, 9, 1, 12, 2, 2, 15, 1, 11, 16, 1, 11, 12, 15, 5, 1,
		1, 1, 1, 5, 4, 1, 4, 6, 1, 10, 2, 2, 2, 1, 2, 5, 10, 6, 12, 1,
		11, 1, 1, 16, 3, 1, 17, 1, 1, 14, 1, 2, 1, 1, 6, 4, 1, 5, 5, 14,
		8, 4, 5, 6, 1, 1, 3, 7, 12, 1, 6, 1, 8, 14, 1, 16, 15, 13, 11, 2,
	}
	for seed, want := range random {
		tpl := fuzzcheck.RandomTemplate(uint64(seed), 2+seed%30)
		if got, err := tpl.ExpectedTasks(); err != nil || got != want {
			t.Errorf("%s: ExpectedTasks = %d, %v; want %d", tpl.Name, got, err, want)
		}
	}
	if _, err := (ndwf.Template{Name: "empty"}).ExpectedTasks(); err == nil {
		t.Error("a template without a root counted")
	}
}
