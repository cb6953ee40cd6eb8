package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestWriteMarkdown(t *testing.T) {
	s := testSweep(t)
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Sweep results", "## Pareto scenario", "### Montage",
		"| strategy | gain % |", "## Recommendations (Table V)",
		"AllPar1LnSDyn", "| small |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// 12 panes x 19 strategies of data rows at least.
	if got := strings.Count(out, "\n| "); got < 12*19 {
		t.Errorf("markdown data rows = %d, want >= %d", got, 12*19)
	}
}

func TestStabilityTableRendering(t *testing.T) {
	rows, err := core.MultiSeed(core.Config{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := StabilityTable(rows)
	for _, want := range []string{"== Montage ==", "== Sequential ==", "±", "in-square", "GAIN"} {
		if !strings.Contains(out, want) {
			t.Errorf("stability table missing %q", want)
		}
	}
}
