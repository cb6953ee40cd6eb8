package workflows

import (
	"testing"

	"repro/internal/dag"
)

func TestEpigenomicsStructure(t *testing.T) {
	w := Epigenomics(4)
	if w.Len() != 4*4+3 {
		t.Errorf("Len = %d, want 19", w.Len())
	}
	// Four independent entry lanes.
	if got := len(w.Entries()); got != 4 {
		t.Errorf("entries = %d, want 4", got)
	}
	if got := len(w.Exits()); got != 1 {
		t.Errorf("exits = %d, want 1", got)
	}
	// Pipeline depth: 4 lane stages + merge + index + pileup.
	if w.Depth() != 7 {
		t.Errorf("Depth = %d, want 7", w.Depth())
	}
	if w.MaxParallelism() != 4 {
		t.Errorf("MaxParallelism = %d, want 4", w.MaxParallelism())
	}
}

func TestInspiralStructure(t *testing.T) {
	w := Inspiral(2, 3)
	if w.Len() != 2*(3*3+2) {
		t.Errorf("Len = %d, want 22", w.Len())
	}
	// Each group's first thinca joins its 3 inspirals.
	var thinca dag.TaskID = -1
	for _, task := range w.Tasks() {
		if task.Name == "thinca1-0" {
			thinca = task.ID
		}
	}
	if thinca < 0 {
		t.Fatal("thinca1-0 missing")
	}
	if got := len(w.Pred(thinca)); got != 3 {
		t.Errorf("thinca1-0 inputs = %d, want 3", got)
	}
	if got := len(w.Succ(thinca)); got != 3 {
		t.Errorf("thinca1-0 outputs = %d, want 3", got)
	}
	// Groups are independent: entries = groups x width banks.
	if got := len(w.Entries()); got != 6 {
		t.Errorf("entries = %d, want 6", got)
	}
}

func TestCyberShakeStructure(t *testing.T) {
	w := CyberShake(8)
	if w.Len() != 2*8+4 {
		t.Errorf("Len = %d, want 20", w.Len())
	}
	if got := len(w.Entries()); got != 2 {
		t.Errorf("entries = %d, want 2 (the SGT pair)", got)
	}
	if got := len(w.Exits()); got != 2 {
		t.Errorf("exits = %d, want 2 (the zip pair)", got)
	}
	// The defining fan: 8 peak-value tasks plus zipSeis share a level.
	if w.MaxParallelism() != 9 {
		t.Errorf("MaxParallelism = %d, want 9", w.MaxParallelism())
	}
	if got := len(w.Levels()[1]); got != 8 {
		t.Errorf("seismogram level width = %d, want 8", got)
	}
}

func TestPegasusPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"epigenomics": func() { Epigenomics(0) },
		"inspiral":    func() { Inspiral(1, 0) },
		"cybershake":  func() { CyberShake(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExtendedCorpus(t *testing.T) {
	m := Extended()
	names := ExtendedNames()
	if len(m) != 7 || len(names) != 7 {
		t.Fatalf("extended corpus = %d/%d, want 7", len(m), len(names))
	}
	for _, n := range names {
		w, ok := m[n]
		if !ok {
			t.Errorf("missing %s", n)
			continue
		}
		if err := w.Freeze(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}
