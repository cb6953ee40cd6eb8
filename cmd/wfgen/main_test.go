package main

import "testing"

func TestRunAllTypesAndFormats(t *testing.T) {
	for _, typ := range []string{"montage", "cstem", "mapreduce", "sequential", "fig1", "random"} {
		for _, format := range []string{"json", "dot", "dax"} {
			if err := run(typ, 4, 3, 2, format, "none", 1); err != nil {
				t.Errorf("%s/%s: %v", typ, format, err)
			}
		}
	}
}

func TestRunWithScenarios(t *testing.T) {
	for _, sc := range []string{"Pareto", "Best case", "Worst case"} {
		if err := run("cstem", 4, 3, 2, "json", sc, 1); err != nil {
			t.Errorf("%s: %v", sc, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 4, 3, 2, "json", "none", 1); err == nil {
		t.Error("unknown type accepted")
	}
	if err := run("cstem", 4, 3, 2, "yaml", "none", 1); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run("cstem", 4, 3, 2, "json", "nope", 1); err == nil {
		t.Error("unknown scenario accepted")
	}
	// Sizes a shape cannot take are errors, not constructor panics.
	for _, c := range []struct {
		typ     string
		n, m, r int
	}{
		{"montage", 1, 3, 2},
		{"montage", 0, 3, 2},
		{"montage", -4, 3, 2},
		{"sequential", 0, 3, 2},
		{"sequential", -1, 3, 2},
		{"mapreduce", 4, 0, 0},
		{"mapreduce", 4, 3, 0},
		{"mapreduce", 4, -1, 2},
		{"random", 0, 3, 2},
		{"random", -2, 3, 2},
	} {
		if err := run(c.typ, c.n, c.m, c.r, "json", "none", 1); err == nil {
			t.Errorf("%s with n=%d m=%d r=%d accepted", c.typ, c.n, c.m, c.r)
		}
	}
}
