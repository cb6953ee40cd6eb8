package report

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
)

var cachedSweep *core.Sweep

func testSweep(t *testing.T) *core.Sweep {
	t.Helper()
	if cachedSweep == nil {
		s, err := core.Run(core.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cachedSweep = s
	}
	return cachedSweep
}

func TestScatterRendersPointsAndAxes(t *testing.T) {
	sc := NewScatter("test")
	sc.Add(50, -25, 'o', "hit")
	sc.Add(500, 500, 'x', "clamped")
	out := sc.Render()
	for _, want := range []string{"test", "o", "x", "hit", "clamped", "|", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter output missing %q", want)
		}
	}
	// Legend lists the raw (unclamped) coordinates.
	if !strings.Contains(out, "500.0") {
		t.Error("legend should keep unclamped values")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("idle", "s", []string{"a", "bb"}, []float64{10, 20}, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[2], strings.Repeat("#", 10)) {
		t.Errorf("max bar not full width: %q", lines[2])
	}
	if strings.Count(lines[1], "#") != 5 {
		t.Errorf("half bar wrong: %q", lines[1])
	}
}

func TestBarChartPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	BarChart("x", "", []string{"a"}, nil, 10)
}

func TestBarChartZeroValues(t *testing.T) {
	out := BarChart("z", "", []string{"a"}, []float64{0}, 10)
	if !strings.Contains(out, "a") {
		t.Errorf("zero-value chart broken: %q", out)
	}
}

func TestLinePlotEmpty(t *testing.T) {
	if out := LinePlot("t", nil, 10, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty plot = %q", out)
	}
}

func TestMarksCycle(t *testing.T) {
	m := Marks(40)
	if len(m) != 40 {
		t.Fatalf("len = %d", len(m))
	}
	if m[0] == 0 || m[39] == 0 {
		t.Error("zero runes in marks")
	}
}

func TestFigure3ShowsMonotoneCDF(t *testing.T) {
	out := Figure3(7, 10000)
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "*") {
		t.Errorf("Figure3 output suspicious:\n%s", out)
	}
}

func TestFigure4AllPanes(t *testing.T) {
	s := testSweep(t)
	out := Figure4All(s)
	for _, wf := range s.Workflows() {
		if !strings.Contains(out, wf) {
			t.Errorf("Figure 4 missing pane for %s", wf)
		}
	}
	// All 19 strategies appear in each legend.
	if got := strings.Count(out, "OneVMperTask-s"); got != 4 {
		t.Errorf("OneVMperTask-s appears %d times, want 4", got)
	}
}

func TestFigure5AllPanes(t *testing.T) {
	s := testSweep(t)
	out := Figure5All(s)
	if strings.Count(out, "Figure 5") != 4 {
		t.Error("expected four Fig. 5 panes")
	}
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
}

func TestTable1MatchesPaperPairings(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"OneVMperTask", "HEFT, CPA-Eager, GAIN",
		"level ranking + ET descending", "AllPar1LnSDyn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2MatchesPaperPrices(t *testing.T) {
	out := Table2()
	for _, want := range []string{"us-east-virginia", "0.080", "0.920", "sa-sao-paulo", "0.250"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestTable3Render(t *testing.T) {
	s := testSweep(t)
	out := Table3(s)
	for _, want := range []string{"== Pareto ==", "== Worst case ==", "Montage", "Sequential", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

func TestTable4Render(t *testing.T) {
	s := testSweep(t)
	out := Table4(s)
	for _, want := range []string{"small", "medium", "large", "[", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
}

func TestTable5Render(t *testing.T) {
	s := testSweep(t)
	out, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Montage", "Savings", "Gain", "Balance"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V missing %q", want)
		}
	}
}

func TestWriteSweepCSVRoundTrips(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+s.Len() {
		t.Errorf("CSV rows = %d, want %d", len(records), 1+s.Len())
	}
	if records[0][0] != "workflow" || len(records[0]) != 15 {
		t.Errorf("header = %v", records[0])
	}
	for _, rec := range records[1:] {
		if len(rec) != 15 {
			t.Fatalf("ragged row: %v", rec)
		}
	}
}

func TestWriteGnuplotData(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	if err := WriteGnuplotData(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# workflow:") != 4 {
		t.Error("expected four gnuplot blocks")
	}
	if !strings.Contains(out, `"OneVMperTask-s"`) {
		t.Error("missing strategy column")
	}
}

func TestWriteHTML(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	err := WriteHTML(&buf, s, "CSTEM", []string{"OneVMperTask-s", "AllParExceed-m"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "CSTEM", "<table>", "AllPar1LnSDyn",
		"<svg", "class=\"square\"", "</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if got := strings.Count(out, "<svg"); got != 2 {
		t.Errorf("embedded SVGs = %d, want 2", got)
	}
}

func TestWriteHTMLErrors(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	if err := WriteHTML(&buf, s, "Ghost", nil); err == nil {
		t.Error("unknown workflow accepted")
	}
	if err := WriteHTML(&buf, s, "CSTEM", []string{"Bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSummary(t *testing.T) {
	s := testSweep(t)
	out := Summary(s)
	for _, want := range []string{
		"Executive summary", "== Montage ==", "fastest:", "cheapest:",
		"Pareto front", "most consistently in the target square",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	// The all-grid champion list is non-empty and plausibly led by a
	// never-losing strategy.
	if !strings.Contains(out, "AllPar1LnS") {
		t.Error("expected a dynamic strategy among the consistent winners")
	}
}

func TestWriteLaTeX(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	if err := WriteLaTeX(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"\\begin{table}", "\\toprule", "\\bottomrule", "Montage",
		"OneVMperTask-s", "% Worst case scenario",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LaTeX missing %q", want)
		}
	}
	if strings.Count(out, "\\begin{table}") != 3 {
		t.Error("expected one table per scenario")
	}
	var buf4 bytes.Buffer
	if err := WriteLaTeXTable4(&buf4, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf4.String(), "AllPar[Not]Exceed") {
		t.Error("Table IV LaTeX malformed")
	}
}

func TestLatexEscape(t *testing.T) {
	if got := latexEscape("a_b%c&d"); got != "a\\_b\\%c\\&d" {
		t.Errorf("latexEscape = %q", got)
	}
}
