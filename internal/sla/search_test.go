package sla

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/sched"
)

func orderSearchConfig(deadline, target float64) SearchConfig {
	return SearchConfig{
		Deadline: deadline,
		Target:   target,
		Config:   Config{Samples: 30, Seed: 17},
		Opts:     sched.DefaultOptions(),
	}
}

func TestSearchFindsCheapestMeeting(t *testing.T) {
	res, err := Search(ndwf.Order(), orderSearchConfig(4000, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best candidate")
	}
	if res.Best.MeetProbability < 0.9 {
		t.Fatalf("best %s does not meet: p = %v", res.Best.Strategy, res.Best.MeetProbability)
	}
	// Results are sorted by mean cost, and nothing cheaper qualifies.
	for _, r := range res.Results {
		if r.Cost.Mean > res.Best.Cost.Mean {
			break
		}
		if &r != res.Best && r.MeetProbability >= 0.9 && r.Cost.Mean < res.Best.Cost.Mean {
			t.Fatalf("cheaper qualifier %s ($%v) not chosen over %s ($%v)",
				r.Strategy, r.Cost.Mean, res.Best.Strategy, res.Best.Cost.Mean)
		}
	}
	if res.Considered != len(res.Results)+len(res.Pruned) {
		t.Fatalf("considered %d != %d sampled + %d pruned",
			res.Considered, len(res.Results), len(res.Pruned))
	}
	for _, r := range res.Results {
		if r.Bound == nil {
			t.Fatalf("%s: no analytic bound attached", r.Strategy)
		}
	}
}

func TestSearchPrunesHopelessCandidates(t *testing.T) {
	// The order template's certain minimum on small instances is well
	// above 400s, so every small-typed strategy must be pruned without
	// sampling, while large-typed ones survive the bound.
	res, err := Search(ndwf.Order(), orderSearchConfig(400, 0.95))
	if !errors.Is(err, ErrNoStrategyMeets) {
		t.Fatalf("expected ErrNoStrategyMeets, got %v", err)
	}
	if len(res.Pruned) == 0 {
		t.Fatal("nothing pruned at a 400s deadline")
	}
	for _, p := range res.Pruned {
		if p.Bound.MinMakespan <= res.Deadline {
			t.Fatalf("%s pruned with bound %v <= deadline %v", p.Strategy, p.Bound.MinMakespan, res.Deadline)
		}
	}
	sampled := res.Sampled
	if want := len(res.Results) * 30; sampled != want {
		t.Fatalf("sampled %d instances, want %d", sampled, want)
	}
}

// TestSearchPruneNeverChangesAcceptance is the safety invariant behind the
// analytic pre-pass, checked exhaustively on the default portfolio: with
// the prune disabled, every candidate that reaches the target must also be
// sampled (not pruned) in the bounded run, with bit-identical results —
// and therefore the selected Best is bit-identical too.
func TestSearchPruneNeverChangesAcceptance(t *testing.T) {
	for _, deadline := range []float64{500, 900, 1500, 4000} {
		cfg := orderSearchConfig(deadline, 0.9)
		bounded, bErr := Search(ndwf.Order(), cfg)
		cfg.NoBound = true
		full, fErr := Search(ndwf.Order(), cfg)
		if len(full.Pruned) != 0 {
			t.Fatalf("deadline %v: NoBound run pruned %d candidates", deadline, len(full.Pruned))
		}
		byKey := make(map[[2]string]Result, len(bounded.Results))
		for _, r := range bounded.Results {
			byKey[[2]string{r.Strategy, r.Market}] = r
		}
		for _, r := range full.Results {
			got, sampled := byKey[[2]string{r.Strategy, r.Market}]
			if r.MeetProbability >= cfg.Target && !sampled {
				t.Fatalf("deadline %v: accepted candidate %s/%s was pruned", deadline, r.Strategy, r.Market)
			}
			if sampled && !reflect.DeepEqual(got, r) {
				t.Fatalf("deadline %v: %s/%s differs between bounded and full run", deadline, r.Strategy, r.Market)
			}
		}
		if (bErr == nil) != (fErr == nil) {
			t.Fatalf("deadline %v: bounded err %v, full err %v", deadline, bErr, fErr)
		}
		if bErr == nil && !reflect.DeepEqual(bounded.Best, full.Best) {
			t.Fatalf("deadline %v: best differs: %s vs %s", deadline, bounded.Best.Strategy, full.Best.Strategy)
		}
	}
}

// TestSearchBitIdentical is the acceptance criterion's reproducibility
// half: repeated runs and different worker counts give byte-identical
// search results on the seeded Montage template.
func TestSearchBitIdentical(t *testing.T) {
	tpl, err := ndwf.Named("montage")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{
		Deadline: 20000,
		Target:   0.95,
		Config:   Config{Samples: 15, Seed: 23},
		Opts:     sched.DefaultOptions(),
		Markets:  []string{"none", "ondemand-min"},
	}
	first, err := Search(tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 7} {
		cfg.Workers = workers
		again, err := Search(tpl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("search result differs at %d workers", workers)
		}
	}
}

func TestSearchExplicitCandidates(t *testing.T) {
	cands := []frontier.Candidate{
		{Strategy: "OneVMperTask-s", Market: "none"},
		{Strategy: "AllParExceed-l", Market: "ondemand-sec"},
	}
	cfg := orderSearchConfig(4000, 0.5)
	cfg.Candidates = cands
	res, err := Search(ndwf.Order(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 2 {
		t.Fatalf("considered %d, want 2", res.Considered)
	}
	for _, r := range res.Results {
		if r.Market == "" {
			t.Fatalf("%s: market not recorded", r.Strategy)
		}
	}
}

func TestSearchRejectsBadInputs(t *testing.T) {
	tpl := ndwf.Order()
	if _, err := Search(tpl, SearchConfig{Deadline: 0, Target: 0.9, Config: Config{Samples: 5}}); err == nil {
		t.Error("no error for zero deadline")
	}
	if _, err := Search(tpl, SearchConfig{Deadline: 100, Target: 0, Config: Config{Samples: 5}}); err == nil {
		t.Error("no error for zero target")
	}
	if _, err := Search(tpl, SearchConfig{Deadline: 100, Target: 1.5, Config: Config{Samples: 5}}); err == nil {
		t.Error("no error for target > 1")
	}
	cfg := orderSearchConfig(100, 0.9)
	cfg.Candidates = []frontier.Candidate{{Strategy: "nope", Market: "none"}}
	if _, err := Search(tpl, cfg); err == nil {
		t.Error("no error for unknown strategy")
	}
	cfg.Candidates = []frontier.Candidate{{Strategy: "GAIN", Market: "nope"}}
	if _, err := Search(tpl, cfg); err == nil {
		t.Error("no error for unknown market")
	}
}

// TestSearchMatchesMeasure checks the shared instance-major pass against
// its definition: every sampled Result of a Search equals Measure of that
// candidate alone, with Market and Bound set as Search sets them, across
// markets, fault settings and worker counts. The reversed portfolio gives
// the same results and the same Best.
func TestSearchMatchesMeasure(t *testing.T) {
	tpl := ndwf.Order()
	flaky, err := fault.Preset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	flaky.Seed = 29
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"flaky", func(c *Config) { c.Faults = &flaky }},
		{"fault-free", func(c *Config) {}},
		{"paranoid", func(c *Config) { c.Paranoid = true }},
	}
	for _, mkt := range []string{"none", "spot", "ondemand-sec"} {
		for _, mode := range modes {
			for _, workers := range []int{1, 3, 16} {
				cfg := orderSearchConfig(600, 0.9)
				cfg.Samples, cfg.Seed, cfg.Workers = 8, 31, workers
				cfg.Markets = []string{mkt}
				mode.set(&cfg.Config)
				name := fmt.Sprintf("%s/%s/workers=%d", mkt, mode.name, workers)

				res, err := Search(tpl, cfg)
				if err != nil && !errors.Is(err, ErrNoStrategyMeets) {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Results) == 0 || len(res.Pruned) == 0 {
					t.Fatalf("%s: %d sampled, %d pruned; want both", name, len(res.Results), len(res.Pruned))
				}
				for _, r := range res.Results {
					alg, err := sched.ByName(r.Strategy)
					if err != nil {
						t.Fatal(err)
					}
					model, err := market.Preset(r.Market)
					if err != nil {
						t.Fatal(err)
					}
					opts := cfg.Opts
					opts.Market = model
					want, err := Measure(tpl, alg, opts, cfg.Deadline, cfg.Config)
					if err != nil {
						t.Fatalf("%s: measure %s@%s: %v", name, r.Strategy, r.Market, err)
					}
					bound, err := AnalyticBound(tpl, BoundType(r.Strategy))
					if err != nil {
						t.Fatal(err)
					}
					want.Market, want.Bound = r.Market, &bound
					if !reflect.DeepEqual(r, want) {
						t.Fatalf("%s: %s@%s differs from Measure of the candidate alone", name, r.Strategy, r.Market)
					}
				}

				cands := frontier.Portfolio(nil, cfg.Markets)
				slices.Reverse(cands)
				cfg.Candidates = cands
				rev, revErr := Search(tpl, cfg)
				if (err == nil) != (revErr == nil) {
					t.Fatalf("%s: forward err %v, reversed err %v", name, err, revErr)
				}
				if !reflect.DeepEqual(res.Results, rev.Results) || !reflect.DeepEqual(res.Best, rev.Best) {
					t.Fatalf("%s: the reversed portfolio changes the results", name)
				}
			}
		}
	}
}

// TestSearchAllocs guards the allocations the pass spends per sampled
// instance: one DAG per instance, shared by every candidate, and replay
// state reused across the candidates and instances of a worker.
func TestSearchAllocs(t *testing.T) {
	tpl, err := ndwf.Named("montage")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fault.Preset("flaky")
	if err != nil {
		t.Fatal(err)
	}
	fc.Seed = 3
	cfg := SearchConfig{
		Deadline: 4000,
		Target:   0.95,
		Config:   Config{Samples: 20, Seed: 3, Workers: 1, Faults: &fc},
		Markets:  []string{"none", "spot"},
		Opts:     sched.DefaultOptions(),
	}
	var res SearchResult
	search := func() {
		var err error
		if res, err = Search(tpl, cfg); err != nil && !errors.Is(err, ErrNoStrategyMeets) {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, search)
	if res.Considered != 42 || res.Sampled == 0 {
		t.Fatalf("considered %d candidates, sampled %d instances", res.Considered, res.Sampled)
	}
	perInstance := allocs / float64(res.Sampled)
	const ceiling = 80
	if perInstance > ceiling {
		t.Errorf("%.1f allocs per sampled instance (%.0f over %d), ceiling %d",
			perInstance, allocs, res.Sampled, ceiling)
	}
	t.Logf("%.1f allocs per sampled instance", perInstance)
}

// TestSearchParanoidScreen searches under every fault preset on the none
// and spot markets, with and without Paranoid. Paranoid replays the
// samples the screen proved quiet and fails the search on any whose
// replay saw a fault or differs from the plan in a bit, so equal results
// mean the screen took exactly what the replays would have returned.
func TestSearchParanoidScreen(t *testing.T) {
	tpl, err := ndwf.Named("montage")
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range fault.PresetNames() {
		fc, err := fault.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		fc.Seed = 13
		for _, mkt := range []string{"none", "spot"} {
			cfg := SearchConfig{
				Deadline: 4000,
				Target:   0.95,
				Config:   Config{Samples: 40, Seed: 13, Faults: &fc},
				Markets:  []string{mkt},
				Opts:     sched.DefaultOptions(),
			}
			want, wantErr := Search(tpl, cfg)
			if wantErr != nil && !errors.Is(wantErr, ErrNoStrategyMeets) {
				t.Fatalf("%s/%s: %v", preset, mkt, wantErr)
			}
			cfg.Paranoid = true
			got, err := Search(tpl, cfg)
			if err != wantErr {
				t.Fatalf("%s/%s: paranoid error %v, want %v", preset, mkt, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: the paranoid search differs", preset, mkt)
			}
		}
	}
}

// TestSearchRejectsInvalidFaults pins the error an invalid fault config
// fails the search with. The screen validates the config as the replay
// does, so the error stands although a screened sample runs no replay.
func TestSearchRejectsInvalidFaults(t *testing.T) {
	cfg := orderSearchConfig(4000, 0.9)
	cfg.Workers = 1
	cfg.Faults = &fault.Config{CrashRate: 1e-12, TaskFailProb: 2}
	_, err := Search(ndwf.Order(), cfg)
	const want = "sla: fault replay on instance 0: fault: task failure probability 2 outside [0, 1]"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
