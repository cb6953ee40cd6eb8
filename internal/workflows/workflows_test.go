package workflows

import (
	"reflect"
	"strings"
	"testing"
)

func TestPaperMontageHas24Tasks(t *testing.T) {
	w := PaperMontage()
	if w.Len() != 24 {
		t.Errorf("paper Montage has %d tasks, want 24", w.Len())
	}
}

func TestMontageStructure(t *testing.T) {
	w := Montage(6) // 24 tasks
	if w.Len() != 24 {
		t.Errorf("Len = %d, want 24", w.Len())
	}
	if got := len(w.Entries()); got != 6 {
		t.Errorf("entries = %d, want 6 (projections)", got)
	}
	if got := len(w.Exits()); got != 1 {
		t.Errorf("exits = %d, want 1 (mJPEG)", got)
	}
	if w.MaxParallelism() != 6 {
		t.Errorf("MaxParallelism = %d, want 6", w.MaxParallelism())
	}
	// The signature cross-level dependency: projections feed mBackground
	// directly, several levels down.
	var projID, bgID = -1, -1
	for _, task := range w.Tasks() {
		if task.Name == "mProject0" {
			projID = int(task.ID)
		}
		if task.Name == "mBackground0" {
			bgID = int(task.ID)
		}
	}
	if projID < 0 || bgID < 0 {
		t.Fatal("expected task names missing")
	}
	if _, ok := w.Data(0, 0); ok {
		t.Fatal("self edge?")
	}
	found := false
	for _, e := range w.Edges() {
		if int(e.From) == projID && int(e.To) == bgID {
			found = true
		}
	}
	if !found {
		t.Error("missing cross-level mProject0 -> mBackground0 dependency")
	}
}

func TestMontagePanicsOnTooFewImages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Montage(1)
}

func TestCSTEMStructure(t *testing.T) {
	w := CSTEM()
	if got := len(w.Entries()); got != 1 {
		t.Errorf("entries = %d, want 1", got)
	}
	// Several final tasks (the paper calls this out explicitly).
	if got := len(w.Exits()); got != 3 {
		t.Errorf("exits = %d, want 3", got)
	}
	// The six-task fan of Fig. 1.
	if got := len(w.Levels()[1]); got != 6 {
		t.Errorf("level 1 width = %d, want 6", got)
	}
	if w.MaxParallelism() != 6 {
		t.Errorf("MaxParallelism = %d, want 6", w.MaxParallelism())
	}
}

func TestMapReduceStructure(t *testing.T) {
	w := MapReduce(8, 4)
	if w.Len() != 1+8+8+4+1 {
		t.Errorf("Len = %d, want 22", w.Len())
	}
	if len(w.Entries()) != 1 || len(w.Exits()) != 1 {
		t.Errorf("entries/exits = %d/%d, want 1/1", len(w.Entries()), len(w.Exits()))
	}
	// Two sequential map phases: depth = split, map1, map2, reduce, merge.
	if w.Depth() != 5 {
		t.Errorf("Depth = %d, want 5", w.Depth())
	}
	if w.MaxParallelism() != 8 {
		t.Errorf("MaxParallelism = %d, want 8", w.MaxParallelism())
	}
	// The shuffle: every reducer consumes every phase-2 map output.
	reduceLevel := w.Levels()[3]
	if len(reduceLevel) != 4 {
		t.Fatalf("reduce level width = %d, want 4", len(reduceLevel))
	}
	for _, r := range reduceLevel {
		if got := len(w.Pred(r)); got != 8 {
			t.Errorf("reducer %d has %d inputs, want 8", r, got)
		}
	}
}

func TestMapReducePanics(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MapReduce(%d, %d): no panic", args[0], args[1])
				}
			}()
			MapReduce(args[0], args[1])
		}()
	}
}

func TestSequentialStructure(t *testing.T) {
	w := Sequential(10)
	if w.Len() != 10 || w.Depth() != 10 || w.MaxParallelism() != 1 {
		t.Errorf("Len=%d Depth=%d MaxPar=%d", w.Len(), w.Depth(), w.MaxParallelism())
	}
}

func TestSequentialPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Sequential(0)
}

func TestFig1SubWorkflow(t *testing.T) {
	w := Fig1SubWorkflow()
	if w.Len() != 7 {
		t.Errorf("Len = %d, want 7 (one initial + six subsequent)", w.Len())
	}
	if len(w.Entries()) != 1 {
		t.Errorf("entries = %d, want 1", len(w.Entries()))
	}
	if got := len(w.Levels()[1]); got != 6 {
		t.Errorf("level 1 width = %d, want 6", got)
	}
}

func TestPaperSetComplete(t *testing.T) {
	set := Paper()
	names := PaperNames()
	if len(set) != 4 || len(names) != 4 {
		t.Fatalf("paper set size = %d/%d, want 4", len(set), len(names))
	}
	for _, n := range names {
		w, ok := set[n]
		if !ok {
			t.Errorf("missing workflow %q", n)
			continue
		}
		if err := w.Freeze(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if !strings.Contains(strings.ToLower(w.Name), strings.ToLower(n[:4])) {
			t.Errorf("%s: workflow name %q looks wrong", n, w.Name)
		}
	}
}

func TestAllBuildersProduceValidDAGs(t *testing.T) {
	builders := map[string]func() interface{ Freeze() error }{
		"Montage(2)":      func() interface{ Freeze() error } { return Montage(2) },
		"Montage(12)":     func() interface{ Freeze() error } { return Montage(12) },
		"MapReduce(1,1)":  func() interface{ Freeze() error } { return MapReduce(1, 1) },
		"MapReduce(16,8)": func() interface{ Freeze() error } { return MapReduce(16, 8) },
		"Sequential(1)":   func() interface{ Freeze() error } { return Sequential(1) },
		"CSTEM":           func() interface{ Freeze() error } { return CSTEM() },
	}
	for name, build := range builders {
		if err := build().Freeze(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCorpusTableAgrees checks that every view of the corpus reads the
// one table: Paper and Extended build what its constructors build, their
// name lists follow its order, and Lookup finds each entry in any case.
func TestCorpusTableAgrees(t *testing.T) {
	ext, extNames := Extended(), ExtendedNames()
	if len(ext) != len(corpus) || len(extNames) != len(corpus) {
		t.Fatalf("Extended has %d workflows and %d names, the table %d", len(ext), len(extNames), len(corpus))
	}
	paper, paperNames := Paper(), PaperNames()
	for i, n := range corpus {
		if extNames[i] != n.name {
			t.Errorf("ExtendedNames()[%d] = %q, table says %q", i, extNames[i], n.name)
		}
		if !reflect.DeepEqual(ext[n.name], n.build()) {
			t.Errorf("Extended()[%q] differs from its constructor's DAG", n.name)
		}
		if i < len(paperNames) && (paperNames[i] != n.name || !reflect.DeepEqual(paper[n.name], n.build())) {
			t.Errorf("Paper entry %d (%q) differs from the table's %q", i, paperNames[i], n.name)
		}
		for _, spelled := range []string{n.name, strings.ToUpper(n.name), strings.ToLower(n.name)} {
			if b, ok := Lookup(spelled); !ok || !reflect.DeepEqual(b(), n.build()) {
				t.Errorf("Lookup(%q) = %v", spelled, ok)
			}
		}
	}
	if _, ok := Lookup("Fig1"); ok {
		t.Error("Lookup found Fig1, which is not in the corpus")
	}
}
