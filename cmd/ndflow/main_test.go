package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ndwf"
)

func TestRunEmitTemplate(t *testing.T) {
	if err := run("", "template", 1, 10, "OneVMperTask-s", 1000, 0.9); err != nil {
		t.Error(err)
	}
}

func TestRunEmitInstance(t *testing.T) {
	if err := run("", "instance", 7, 10, "OneVMperTask-s", 1000, 0.9); err != nil {
		t.Error(err)
	}
}

func TestRunEmitStats(t *testing.T) {
	if err := run("", "stats", 1, 20, "AllPar1LnS", 1000, 0.9); err != nil {
		t.Error(err)
	}
}

func TestRunWithTemplateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tpl.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ndwf.EncodeJSON(f, ndwf.Order()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(path, "stats", 1, 10, "GAIN", 1000, 0.9); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "nope", 1, 10, "GAIN", 1000, 0.9); err == nil {
		t.Error("unknown emit accepted")
	}
	if err := run("", "stats", 1, 10, "Bogus", 1000, 0.9); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run("/does/not/exist.json", "template", 1, 10, "GAIN", 1000, 0.9); err == nil {
		t.Error("missing file accepted")
	}
	if err := run("", "stats", 1, 0, "GAIN", 1000, 0.9); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestBuiltinTemplateValid(t *testing.T) {
	if err := ndwf.Order().Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunEmitSLA(t *testing.T) {
	if err := run("", "sla", 1, 30, "", 1500, 0.5); err != nil {
		t.Error(err)
	}
	// A zero deadline fails validation inside sla.CheapestMeeting.
	if err := run("", "sla", 1, 30, "", 0, 0.5); err == nil {
		t.Error("zero deadline accepted")
	}
}
