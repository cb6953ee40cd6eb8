package online

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/obs"
	"repro/internal/stats"
)

// mixDraw is instance i's template and sample seed under the mix at seed,
// drawn as mixBuilder draws them.
func mixDraw(t *testing.T, mix []MixEntry, seed uint64, i int) (ndwf.Checked, uint64) {
	t.Helper()
	total := 0.0
	for _, e := range mix {
		total += e.Weight
	}
	r := stats.NewRNG(mixSeed(seed, uint64(i)))
	u := r.Float64() * total
	pick := len(mix) - 1
	for j, e := range mix {
		if u < e.Weight {
			pick = j
			break
		}
		u -= e.Weight
	}
	c, err := mix[pick].Template.Check()
	if err != nil {
		t.Fatal(err)
	}
	return c, r.Uint64()
}

// reusingBuilder draws the mix's instances into two Samplers' workflows in
// turn: every call resets and rebuilds the workflow of the call before
// last. As a call returns, a goroutine resets and rebuilds the workflow
// the call before returned, unsynchronized with the runner, so under
// -race a runner that reads an instance's workflow after the next
// arrival's builder call races with it; without -race, such a reader
// would most likely see another instance's DAG. wait blocks until the
// last such goroutine is done.
func reusingBuilder(t *testing.T, mix []MixEntry, seed uint64) (build func(int, *stats.RNG) *dag.Workflow, wait func()) {
	var samplers [2]ndwf.Sampler
	var poisoned [2]chan struct{}
	wait = func() {
		for _, done := range poisoned {
			if done != nil {
				<-done
			}
		}
	}
	build = func(i int, _ *stats.RNG) *dag.Workflow {
		if done := poisoned[i%2]; done != nil {
			<-done
		}
		c, s := mixDraw(t, mix, seed, i)
		wf, err := samplers[i%2].Sample(c, s)
		if err != nil {
			t.Error(err)
			return nil
		}
		if i > 0 {
			prev, done := &samplers[(i-1)%2], make(chan struct{})
			poisoned[(i-1)%2] = done
			go func() {
				defer close(done)
				prev.Sample(c, ^s) //nolint:errcheck // the instance is garbage by design
			}()
		}
		return wf
	}
	return build, wait
}

// TestBuilderMayReuseItsWorkflow holds Run to the Config.Instance contract
// that a builder may reset and rebuild its workflow for every instance:
// over every market preset × fault preset × scaler of TestGoldenStreams'
// grid (FIFO, no pool floor), a builder that does gives the Result hash
// and the obs event-stream hash of a builder that returns a fresh DAG per
// instance, and both match the same run through Config.Mix. CI runs it
// under -race, where reusingBuilder's goroutine catches a runner that
// reads an instance's workflow after its arrival.
func TestBuilderMayReuseItsWorkflow(t *testing.T) {
	mix := mixEntries(t)
	runHashes := func(cfg Config) (string, string) {
		t.Helper()
		var col obs.Collector
		cfg.Recorder = &col
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return hashOf(*res), hashOf(col.Events)
	}
	for _, mk := range market.PresetNames() {
		for _, fname := range goldenFaults {
			for _, scaler := range ScalerNames() {
				cfg := goldenConfig(t, mix, mk, fname, scaler, FIFO, 0)
				name := mk + "/" + fname + "/" + scaler
				wantRes, wantEvents := runHashes(cfg)

				cfg.Mix = nil
				cfg.Instance = func(i int, _ *stats.RNG) *dag.Workflow {
					c, s := mixDraw(t, mix, cfg.Seed, i)
					wf, err := c.Sample(s)
					if err != nil {
						t.Fatal(err)
					}
					return wf
				}
				freshRes, freshEvents := runHashes(cfg)

				var wait func()
				cfg.Instance, wait = reusingBuilder(t, mix, cfg.Seed)
				reusedRes, reusedEvents := runHashes(cfg)
				wait()

				if freshRes != wantRes || freshEvents != wantEvents {
					t.Errorf("%s: a fresh-DAG builder gives %s %s, Config.Mix %s %s", name, freshRes, freshEvents, wantRes, wantEvents)
				}
				if reusedRes != freshRes || reusedEvents != freshEvents {
					t.Errorf("%s: a reusing builder gives %s %s, a fresh-DAG one %s %s", name, reusedRes, reusedEvents, freshRes, freshEvents)
				}
			}
		}
	}
}
