package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestRunBuiltins(t *testing.T) {
	for _, wf := range []string{"Montage", "CSTEM", "MapReduce", "Sequential",
		"Epigenomics", "Inspiral", "CyberShake", "Fig1"} {
		if err := run(wf, "none", 1, false); err != nil {
			t.Errorf("%s: %v", wf, err)
		}
	}
}

func TestRunWithScenarioAndReduction(t *testing.T) {
	if err := run("Montage", "Pareto", 7, true); err != nil {
		t.Error(err)
	}
	if err := run("CSTEM", "Data heavy", 7, false); err != nil {
		t.Error(err)
	}
}

func TestRunDAXFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.dax")
	doc := `<adag name="mini">
	  <job id="a" name="a" runtime="100"/>
	  <job id="b" name="b" runtime="200"/>
	  <child ref="b"><parent ref="a"/></child>
	</adag>`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "none", 1, true); err != nil {
		t.Error(err)
	}
}

// TestRunRegistryNames pins the shared registry: every name another front
// end accepts — display names in any case and generator specs — profiles
// here too.
func TestRunRegistryNames(t *testing.T) {
	for _, wf := range []string{"montage24", "montage", "mapreduce16x8", "cstem",
		"sequential20", "layered3x4", "epigenomics6", "inspiral2x5", "cybershake12", "fig1"} {
		if err := run(wf, "none", 1, false); err != nil {
			t.Errorf("%s: %v", wf, err)
		}
	}
	if err := run("montage0", "none", 1, false); err == nil {
		t.Error("bad generator size accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("Ghost", "none", 1, false); err == nil {
		t.Error("unknown workflow accepted")
	}
	if err := run("Montage", "Typical", 1, false); err == nil {
		t.Error("unknown scenario accepted")
	}
	// A path is a file: a missing one reports its open error, not a
	// generator spec's bad size suffix.
	if err := run("./missing.dax", "none", 1, false); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing DAX file: err %v, want the file's open error", err)
	}
}
