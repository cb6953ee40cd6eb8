package main

import "testing"

func TestRunSmallGrid(t *testing.T) {
	if err := run("1,4", "1.5,3.0", "0.2", 2, 1, 1, true); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	if err := run("1,x", "1.5", "0.2", 2, 1, 1, false); err == nil {
		t.Error("bad width accepted")
	}
	if err := run("1", "abc", "0.2", 2, 1, 1, false); err == nil {
		t.Error("bad alpha accepted")
	}
	if err := run("1", "1.5", "", 2, 1, 1, false); err == nil {
		t.Error("bad scale accepted")
	}
	// Values that parse but no grid can take are errors, not panics.
	for _, c := range []struct{ widths, alphas, scales string }{
		{"0", "1.5", "0.2"},
		{"-3", "1.5", "0.2"},
		{"1", "1.5", "0"},
		{"1", "1.5", "-1"},
		{"1", "NaN", "0.2"},
		{"1", "1.5", "Inf"},
	} {
		if err := run(c.widths, c.alphas, c.scales, 2, 1, 1, false); err == nil {
			t.Errorf("-widths %s -alphas %s -scales %s accepted", c.widths, c.alphas, c.scales)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts(" 1, 2 ,3")
	if err != nil || len(ints) != 3 || ints[2] != 3 {
		t.Errorf("parseInts = %v, %v", ints, err)
	}
	floats, err := parseFloats("1.5,2")
	if err != nil || len(floats) != 2 || floats[0] != 1.5 {
		t.Errorf("parseFloats = %v, %v", floats, err)
	}
}
