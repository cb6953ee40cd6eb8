package online

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/streams.golden")

// TestGoldenStreams pins the runner's outputs bit for bit over a grid:
// every market preset (per-BTU, per-minute and per-second billing, spot
// and on-demand) × no faults, crashes and a preemption storm × every
// scaler × FIFO and SJF × an empty and a warm pool floor, plus two runs
// of a builder that draws from the runner's stream. Each line of
// the golden file is one run's name, the hash of its Result (responses
// included) and the hash of its full obs event stream. Each run is
// repeated without a recorder, which must give the same Result hash. An
// intended change to the runner's outputs re-records the file with
// -update; a change meant to keep them must leave it alone.
func TestGoldenStreams(t *testing.T) {
	mix := mixEntries(t)
	var got []string
	var col obs.Collector
	run := func(name string, cfg Config) {
		t.Helper()
		col.Events = col.Events[:0]
		cfg.Recorder = &col
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Recorder = nil
		bare, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s without a recorder: %v", name, err)
		}
		if hashOf(*bare) != hashOf(*res) {
			t.Errorf("%s: recording changes the result", name)
		}
		got = append(got, fmt.Sprintf("%s %s %s", name, hashOf(*res), hashOf(col.Events)))
	}
	for _, mk := range market.PresetNames() {
		for _, fname := range goldenFaults {
			for _, scaler := range ScalerNames() {
				for _, dispatch := range []Dispatch{FIFO, SJF} {
					for _, minVMs := range []int{0, 3} {
						name := fmt.Sprintf("%s/%s/%s/%s/min%d", mk, fname, scaler, dispatch, minVMs)
						run(name, goldenConfig(t, mix, mk, fname, scaler, dispatch, minVMs))
					}
				}
			}
		}
	}

	// A Config.Instance builder draws from the runner's own stream, which
	// the arrival gaps must leave as they found it.
	order := mix[0].Template
	for _, mk := range []string{"none", "ondemand-sec"} {
		m, err := market.Preset(mk)
		if err != nil {
			t.Fatal(err)
		}
		run("builder/"+mk, Config{
			MeanInterarrival: 45,
			Instances:        150,
			Instance: func(_ int, r *stats.RNG) *dag.Workflow {
				wf, err := order.Sample(r.Uint64())
				if err != nil {
					t.Fatal(err)
				}
				return wf
			},
			Type:   cloud.Small,
			Region: cloud.USEastVirginia,
			MaxVMs: 12,
			Market: m,
			Seed:   11,
		})
	}

	path := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d runs, the grid %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run differs from %s:\n got %s\nwant %s", path, got[i], want[i])
		}
	}
}

// goldenFaults are the fault presets of TestGoldenStreams' grid.
var goldenFaults = []string{"none", "flaky", "preempt-storm"}

// goldenConfig is the TestGoldenStreams run of the mix under the named
// market preset, fault preset and scaler, with the given dispatch order
// and pool floor.
func goldenConfig(t *testing.T, mix []MixEntry, mk, fname, scaler string, dispatch Dispatch, minVMs int) Config {
	t.Helper()
	m, err := market.Preset(mk)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fault.Preset(fname)
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 5
	s, err := ParseScaler(scaler)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		MeanInterarrival: 45,
		Instances:        150,
		Mix:              mix,
		Type:             cloud.Small,
		Region:           cloud.USEastVirginia,
		MinVMs:           minVMs,
		MaxVMs:           12,
		Scaler:           s,
		Deadline:         2400,
		Dispatch:         dispatch,
		Market:           m,
		Faults:           &fc,
		Seed:             11,
	}
}

// hashOf is the first 16 hex digits of the SHA-256 of v's %+v form, which
// spells every float in its shortest exact representation.
func hashOf(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
