package market

import (
	"strings"
	"testing"
)

func TestNewTraceRejectsBadSegments(t *testing.T) {
	bad := [][2][]float64{
		{{}, {}},
		{{0, 60}, {1}},
		{{5, 60}, {1, 2}},        // must anchor at zero
		{{0, 60, 60}, {1, 2, 3}}, // not strictly ascending
		{{0, 60}, {1, 0}},        // non-positive multiplier
		{{0, 60}, {1, -2}},
	}
	for i, c := range bad {
		if _, err := NewTrace(c[0], c[1]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTraceAt(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.At(500) != 1 || nilTrace.Len() != 0 {
		t.Error("nil trace is not flat 1.0")
	}
	tr, err := NewTrace([]float64{0, 100, 250}, []float64{1, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{
		-5: 1, 0: 1, 99.9: 1, 100: 2, 249.9: 2, 250: 0.5, 1e9: 0.5,
	}
	for at, want := range cases {
		if got := tr.At(at); got != want {
			t.Errorf("At(%v) = %v, want %v", at, got, want)
		}
	}
}

func TestTraceSumAt(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.SumAt(0, 3, 60) != 3 {
		t.Error("nil trace sum is not n")
	}
	tr, err := NewTrace([]float64{0, 100, 250}, []float64{1, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// SumAt must agree with n independent At lookups.
	for _, c := range []struct {
		start, unit float64
		n           int
	}{{0, 60, 5}, {90, 30, 8}, {240, 15, 4}, {500, 60, 3}, {0, 60, 0}} {
		var want float64
		for k := 0; k < c.n; k++ {
			want += tr.At(c.start + float64(k)*c.unit)
		}
		if got := tr.SumAt(c.start, c.n, c.unit); got != want {
			t.Errorf("SumAt(%v, %d, %v) = %v, want %v", c.start, c.n, c.unit, got, want)
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(7, 48, 900, 0.2)
	b := Synthetic(7, 48, 900, 0.2)
	if a.Len() != 48 {
		t.Fatalf("len %d", a.Len())
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] || a.Mult[i] != b.Mult[i] {
			t.Fatal("equal seeds disagree")
		}
		if a.Mult[i] < 0.25 || a.Mult[i] > 4 {
			t.Fatalf("multiplier %v outside clamp", a.Mult[i])
		}
	}
	if c := Synthetic(8, 48, 900, 0.2); c.Mult[1] == a.Mult[1] && c.Mult[2] == a.Mult[2] {
		t.Error("seed has no effect")
	}
	// Degenerate arguments are repaired, not rejected.
	if d := Synthetic(1, 0, -5, -1); d.Len() != 1 || d.Times[0] != 0 {
		t.Errorf("degenerate synthetic: %+v", d)
	}
	if _, err := NewTrace(a.Times, a.Mult); err != nil {
		t.Errorf("synthetic trace fails validation: %v", err)
	}
}

func TestParseTraceFormat(t *testing.T) {
	doc := `# spot trace
0 1.0

900 0.8  # cheap overnight
1800 1.4
`
	tr, err := ParseTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.At(900) != 0.8 || tr.At(1800) != 1.4 {
		t.Errorf("parsed trace wrong: %+v", tr)
	}
	bad := []string{
		"0 1 extra",
		"zero 1",
		"0 one",
		"60 1", // no zero anchor
	}
	for _, doc := range bad {
		if _, err := ParseTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%q accepted", doc)
		}
	}
}
