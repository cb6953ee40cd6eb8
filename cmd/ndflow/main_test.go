package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ndwf"
	"repro/internal/sched"
	"repro/internal/sla"
	"repro/internal/wfio"
)

func TestRunEmitTemplate(t *testing.T) {
	var out bytes.Buffer
	if err := run("order", "template", 1, 10, "OneVMperTask-s", &out); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ndwf.EncodeJSON(&want, ndwf.Order()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("template:\n%s\nwant:\n%s", out.Bytes(), want.Bytes())
	}
}

func TestRunEmitInstance(t *testing.T) {
	var out bytes.Buffer
	if err := run("order", "instance", 7, 10, "OneVMperTask-s", &out); err != nil {
		t.Fatal(err)
	}
	wf, err := ndwf.Order().Sample(7)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wfio.Encode(&want, wf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("instance:\n%s\nwant:\n%s", out.Bytes(), want.Bytes())
	}
}

// TestRunEmitStats requires -emit stats to print exactly the numbers
// sla.Measure returns for the same template, strategy, n and seed with
// no deadline.
func TestRunEmitStats(t *testing.T) {
	for _, c := range []struct {
		tpl, strategy string
		n             int
		seed          uint64
	}{
		{"order", "AllPar1LnS", 20, 1},
		{"montage3", "GAIN", 15, 9},
	} {
		var out bytes.Buffer
		if err := run(c.tpl, "stats", c.seed, c.n, c.strategy, &out); err != nil {
			t.Fatal(err)
		}
		tpl, err := ndwf.Named(c.tpl)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := core.StrategyByName(c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sla.Measure(tpl, alg, sched.DefaultOptions(), math.Inf(1), sla.Config{Samples: c.n, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("template %s, %d realized instances, strategy %s\n", tpl.Name, c.n, c.strategy) +
			fmt.Sprintf("  makespan  p50 %7.0fs  p90 %7.0fs  p99 %7.0fs  max %7.0fs\n",
				res.Makespan.Median, res.Makespan.P90, res.Makespan.P99, res.Makespan.Max) +
			fmt.Sprintf("  cost      mean $%.3f  p99 $%.3f\n", res.Cost.Mean, res.Cost.P99)
		if out.String() != want {
			t.Errorf("%s/%s:\n%s\nwant:\n%s", c.tpl, c.strategy, out.String(), want)
		}
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
	var fromFile, named bytes.Buffer
	if err := run(path, "stats", 1, 10, "GAIN", &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run("order", "stats", 1, 10, "GAIN", &named); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != named.String() {
		t.Errorf("file:\n%s\nname:\n%s", fromFile.String(), named.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		name, in, emit, strategy string
		n                        int
	}{
		{"unknown emit", "order", "nope", "GAIN", 10},
		{"removed sla emit", "order", "sla", "GAIN", 10},
		{"unknown strategy", "order", "stats", "Bogus", 10},
		{"missing file", "/does/not/exist.json", "template", "GAIN", 10},
		{"unknown template", "nope", "template", "GAIN", 10},
		{"n=0", "order", "stats", "GAIN", 0},
	} {
		err := run(c.in, c.emit, 1, c.n, c.strategy, io.Discard)
		if err == nil {
			t.Errorf("%s accepted", c.name)
		}
		// A path is a file: a missing one reports its open error, not an
		// unknown template name.
		if c.name == "missing file" && !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: err %v, want the file's open error", c.name, err)
		}
	}
}

func TestBuiltinTemplateValid(t *testing.T) {
	if err := ndwf.Order().Validate(); err != nil {
		t.Error(err)
	}
}
