package dot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workflows"
)

func TestWorkflowDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := Workflow(&buf, workflows.CSTEM()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "t0", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Every task appears.
	wf := workflows.CSTEM()
	for _, task := range wf.Tasks() {
		if !strings.Contains(out, task.Name) {
			t.Errorf("DOT missing task %q", task.Name)
		}
	}
}

func TestSanitizeAndEscape(t *testing.T) {
	if got := sanitize("a b/c"); got != "a_b_c" {
		t.Errorf("sanitize = %q", got)
	}
	if got := escape(`x"y`); got != `x\"y` {
		t.Errorf("escape = %q", got)
	}
}
