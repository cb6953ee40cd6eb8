package online

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/ndwf"
	"repro/internal/stats"
)

// MixEntry is one component of a workflow mix: a non-deterministic
// template and its relative arrival weight.
type MixEntry struct {
	Template ndwf.Template
	Weight   float64
}

// mixSeed derives the per-instance draw stream for the mix: a splitmix64
// hash of (seed, instance), so instance i's template choice and sample
// are independent of every other instance's — the same order-independence
// discipline as fault.CellSeed and market.ColdStart.Draw.
func mixSeed(seed, i uint64) uint64 {
	return stats.Mix64(seed ^ stats.GoldenGamma*(i+1))
}

// mixBuilder validates a mix and turns it into an instance builder:
// instance i picks a template by weight and samples it, both from i's own
// hash stream; the runner's shared stream goes unused. Each template is
// validated here, once, not per sample, and every instance is sampled
// into the one workflow of the builder's Sampler, which the runner copies
// from before it asks for the next.
func mixBuilder(entries []MixEntry, seed uint64) (func(int, *stats.RNG) *dag.Workflow, error) {
	checked := make([]ndwf.Checked, len(entries))
	total := 0.0
	for i, e := range entries {
		if e.Weight <= 0 {
			return nil, fmt.Errorf("online: mix entry %d (%s) has non-positive weight %v",
				i, e.Template.Name, e.Weight)
		}
		var err error
		if checked[i], err = e.Template.Check(); err != nil {
			return nil, fmt.Errorf("online: mix entry %d: %w", i, err)
		}
		total += e.Weight
	}
	var sampler ndwf.Sampler
	return func(i int, _ *stats.RNG) *dag.Workflow {
		r := stats.NewRNG(mixSeed(seed, uint64(i)))
		u := r.Float64() * total
		pick := len(entries) - 1
		for j, e := range entries {
			if u < e.Weight {
				pick = j
				break
			}
			u -= e.Weight
		}
		wf, err := sampler.Sample(checked[pick], r.Uint64())
		if err != nil {
			panic(fmt.Sprintf("online: sampling mix template %q: %v", entries[pick].Template.Name, err))
		}
		return wf
	}, nil
}
