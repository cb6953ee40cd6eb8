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

// validateMix rejects impossible mixes.
func validateMix(entries []MixEntry) error {
	for i, e := range entries {
		if e.Weight <= 0 {
			return fmt.Errorf("online: mix entry %d (%s) has non-positive weight %v",
				i, e.Template.Name, e.Weight)
		}
		if err := e.Template.Validate(); err != nil {
			return fmt.Errorf("online: mix entry %d: %w", i, err)
		}
	}
	return nil
}

// mixBuilder turns a validated mix into an instance builder: instance i
// picks a template by weight and samples it, both from i's own hash
// stream (the shared arrival RNG is deliberately unused, so a mix run's
// arrival times match a fixed-builder run's under the same seed).
func mixBuilder(entries []MixEntry, seed uint64) func(int, *stats.RNG) *dag.Workflow {
	total := 0.0
	for _, e := range entries {
		total += e.Weight
	}
	return func(i int, _ *stats.RNG) *dag.Workflow {
		r := stats.NewRNG(mixSeed(seed, uint64(i)))
		u := r.Float64() * total
		pick := entries[len(entries)-1].Template
		for _, e := range entries {
			if u < e.Weight {
				pick = e.Template
				break
			}
			u -= e.Weight
		}
		wf, err := pick.Sample(r.Uint64())
		if err != nil {
			panic(fmt.Sprintf("online: sampling mix template %q: %v", pick.Name, err))
		}
		return wf
	}
}
