package dax

import (
	"os"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/validate"
)

// TestMontage25Fixture parses a realistic Pegasus-archive-style Montage
// DAX (namespaced document, real file sizes, fractional runtimes) and runs
// it through the full pipeline.
func TestMontage25Fixture(t *testing.T) {
	f, err := os.Open("testdata/montage_25.dax")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "montage-25" {
		t.Errorf("name = %q", w.Name)
	}
	if w.Len() != 22 {
		t.Fatalf("tasks = %d, want 22", w.Len())
	}
	// Structure: the five projections are the entries; mJPEG is the exit.
	if got := len(w.Entries()); got != 5 {
		t.Errorf("entries = %d, want 5", got)
	}
	exits := w.Exits()
	if len(exits) != 1 || w.Task(exits[0]).Name != "mJPEG" {
		t.Errorf("exits = %v", exits)
	}
	// Runtimes were parsed as floats.
	var totalWork float64
	for _, task := range w.Tasks() {
		if task.Work <= 0 {
			t.Fatalf("task %s has no runtime", task.Name)
		}
		totalWork += task.Work
	}
	if totalWork < 300 || totalWork > 800 {
		t.Errorf("total work = %v, implausible for the fixture", totalWork)
	}
	// This is a CPU-intensive workflow: CCR well below 1 on 1 Gb links.
	p := sched.DefaultOptions().Platform
	ccr := w.CCR(dag.CostModel{
		Exec: func(task dag.Task) float64 { return task.Work },
		Comm: func(e dag.Edge) float64 { return p.TransferTime(e.Data, 0, 0) },
	})
	if ccr >= 1 {
		t.Errorf("CCR = %v, want << 1", ccr)
	}
	// End to end: schedule, validate, simulate.
	for _, alg := range []sched.Algorithm{sched.Baseline(), sched.NewAllPar1LnSDyn(), sched.NewGain()} {
		s, err := alg.Schedule(w.Clone(), sched.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := validate.PlanSim(s); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}
