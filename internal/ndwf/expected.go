package ndwf

import (
	"fmt"
	"math"
)

// ExpectedTasks counts the tasks of the template's capacity view, the
// workflow a planner provisions for before any runtime choice is made (in
// the spirit of biCPA's ahead-of-time allocations, the paper's ref. [1]):
// every Xor branch, and each Loop run for its expected number of
// iterations, rounded.
func (t Template) ExpectedTasks() (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return expectedTasks(t.Root), nil
}

func expectedTasks(b Block) int {
	var kids []Block
	switch v := b.(type) {
	case Task:
		return 1
	case Loop:
		mean, _ := v.Iterations()
		return int(math.Round(mean)) * expectedTasks(v.Body)
	case Seq:
		kids = v
	case Par:
		kids = v
	case Xor:
		kids = v.Branches
	default:
		panic(fmt.Sprintf("ndwf: unknown block %T", b))
	}
	n := 0
	for _, c := range kids {
		n += expectedTasks(c)
	}
	return n
}
