package sched

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/provision"
	"repro/internal/workflows"
)

// levelOrderInsertion is the insertion sort the level-based schedulers
// first ordered a level with, kept verbatim as the determinism reference:
// dag.LevelsByWork's sort must produce the identical ordering on every
// level.
func levelOrderInsertion(wf *dag.Workflow, level []dag.TaskID) []dag.TaskID {
	out := append([]dag.TaskID(nil), level...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			wa, wb := wf.Task(a).Work, wf.Task(b).Work
			if wb > wa || (wb == wa && b < a) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	return out
}

func TestLevelOrderMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		w := dag.New("levels")
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// Coarse work values force plenty of ties, exercising the ID
			// tie-break where an unstable sort could diverge.
			id := w.AddTask("", float64(rng.Intn(5)))
			// A sparse set of edges from earlier tasks spreads the
			// workflow over several levels.
			if i > 0 && rng.Intn(4) == 0 {
				w.AddEdge(dag.TaskID(rng.Intn(i)), id, 0)
			}
		}
		if err := w.Freeze(); err != nil {
			t.Fatalf("trial %d: Freeze: %v", trial, err)
		}
		for l, level := range w.Levels() {
			// Feed the reference the level in shuffled order: the result
			// must not depend on the input permutation.
			level = append([]dag.TaskID(nil), level...)
			rng.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
			got := w.LevelsByWork()[l]
			want := levelOrderInsertion(w, level)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d level %d: got %v, want %v", trial, l, got, want)
			}
		}
	}
}

// heftMontageAllocBudget bounds the allocations of one HEFT schedule of
// Montage-24 on a pre-frozen snapshot, ranks warm (measured 90; the seed
// needed 199 with its per-call clone). Raising this number is a perf
// regression: justify it or fix the allocation.
const heftMontageAllocBudget = 96

func TestHEFTScheduleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is exact; skip under -short race/cover runs")
	}
	wf := workflows.Montage(24)
	wf.SetWork(func(t dag.Task) float64 { return t.Work })
	if err := wf.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	alg := NewHEFT(provision.OneVMperTask, cloud.Small)
	opts := DefaultOptions()
	// Warm the rank memo: the steady state of a sweep pane.
	if _, err := alg.Schedule(wf, opts); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := alg.Schedule(wf, opts); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	})
	if allocs > heftMontageAllocBudget {
		t.Fatalf("HEFT on Montage-24: %.0f allocs/run, budget %d", allocs, heftMontageAllocBudget)
	}
}
