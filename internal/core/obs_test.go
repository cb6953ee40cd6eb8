package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// obsConfig is a small grid (1 workflow x 1 scenario x 3 strategies) with
// a fresh Collector attached.
func obsConfig(t *testing.T, workers int) (Config, *obs.Collector) {
	t.Helper()
	var algs []sched.Algorithm
	for _, name := range []string{"OneVMperTask-s", "AllParExceed-s", "GAIN"} {
		alg, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg)
	}
	col := &obs.Collector{}
	return Config{
		Seed:       42,
		Workflows:  map[string]*dag.Workflow{"Montage": workflows.Montage(4)},
		Scenarios:  []workload.Scenario{workload.Pareto},
		Strategies: algs,
		Workers:    workers,
		Recorder:   col,
	}, col
}

// The event stream is part of the sweep's deterministic output: the same
// seed must yield a byte-identical stream at any worker count, because
// cells are replayed into the recorder in grid order after the workers
// finish, never interleaved.
func TestEventStreamWorkerCountInvariant(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		cfg, col := obsConfig(t, workers)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if len(col.Events) == 0 {
			t.Fatal("recorder saw no events")
		}
		var buf bytes.Buffer
		if err := obs.WriteNDJSON(&buf, col.Events); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("event stream with %d workers differs from 1 worker (%d vs %d bytes)",
				workers, buf.Len(), len(want))
		}
	}
}

func TestRecorderStreamShape(t *testing.T) {
	cfg, col := obsConfig(t, 2)
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One cell marker per grid cell, each naming its cell, before any of
	// the cell's events.
	var markers []string
	for _, ev := range col.Events {
		if ev.Kind == obs.KindCellStart {
			markers = append(markers, ev.Label)
		}
	}
	if len(markers) != s.Len() {
		t.Errorf("cell markers = %d, want %d cells", len(markers), s.Len())
	}
	if col.Events[0].Kind != obs.KindCellStart {
		t.Errorf("stream starts with %v, want cell_start", col.Events[0].Kind)
	}
	// Wall-clock spans: one per cell, well-formed, worker in range.
	if len(s.CellSpans) != s.Len() {
		t.Fatalf("CellSpans = %d, want %d", len(s.CellSpans), s.Len())
	}
	for _, sp := range s.CellSpans {
		if sp.End < sp.Start || sp.Name == "" {
			t.Errorf("malformed span %+v", sp)
		}
		if sp.Worker < 0 || sp.Worker >= 2 {
			t.Errorf("span worker %d out of range", sp.Worker)
		}
	}
}

// Without a recorder (and without faults) the sweep must not pay for
// replays or span bookkeeping.
func TestNoRecorderNoSpans(t *testing.T) {
	cfg, _ := obsConfig(t, 1)
	cfg.Recorder = nil
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.CellSpans != nil {
		t.Errorf("CellSpans allocated without a recorder: %d", len(s.CellSpans))
	}
}

// Recording changes no result: the paranoid grid under crashes, task
// failures and spot preemptions evaluates to deep-equal cells with and
// without a recorder, serial and parallel.
func TestRecorderChangesNoResult(t *testing.T) {
	fc, err := fault.Preset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	fc.SpotPreemptRate, fc.Seed = 0.5, 9
	m, err := market.Preset("spot")
	if err != nil {
		t.Fatal(err)
	}
	var want map[Key]Result
	for _, workers := range []int{1, 4} {
		for _, record := range []bool{false, true} {
			cfg := Config{Seed: 5, Paranoid: true, Faults: &fc, Market: m, Workers: workers}
			var col obs.Collector
			if record {
				cfg.Recorder = &col
			}
			s, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if record && len(col.Events) == 0 {
				t.Fatalf("%d workers: the recorder saw no events", workers)
			}
			if want == nil {
				want = s.results
				continue
			}
			if len(s.results) != len(want) {
				t.Fatalf("%d workers, recording %v: %d cells, want %d", workers, record, len(s.results), len(want))
			}
			for k, r := range s.results {
				if !reflect.DeepEqual(r, want[k]) {
					t.Fatalf("%d workers, recording %v: %v differs:\n got %+v\nwant %+v",
						workers, record, k, r, want[k])
				}
			}
		}
	}
	preempted := false
	for _, r := range want {
		preempted = preempted || r.Reliability.SpotPreemptions > 0
	}
	if !preempted {
		t.Error("no cell saw a spot preemption")
	}
}
