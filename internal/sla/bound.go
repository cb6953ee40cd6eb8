package sla

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cloud"
	"repro/internal/ndwf"
	"repro/internal/stats"
)

// Bound is the analytic first-pass view of a template's makespan on a
// given instance type, computed without sampling by propagating per-block
// statistics through the template tree.
//
// MinMakespan is a *certain* lower bound: no realized instance of the
// template, under any strategy restricted to the type (or slower), any
// market preset, or any fault scenario, can finish sooner. It is the
// critical path of the cheapest realization — loops run once, Xor takes
// its shortest branch — at full speed with communication, queueing, boot
// delays and faults all ignored (each can only lengthen a schedule, never
// shorten it). Search uses only this field for pruning.
//
// Mean and Var are *estimates* of the makespan distribution under the
// usual independence heuristics (Par takes the max-mean branch; the true
// mean of a maximum is larger). They order candidates and feed
// MeetEstimate but are never trusted for pruning.
type Bound struct {
	MinMakespan float64
	Mean        float64
	Var         float64
}

// MeetEstimate is the normal-approximation estimate of P(makespan <=
// deadline) implied by Mean/Var. With zero variance it degenerates to a
// step function at the mean.
func (b Bound) MeetEstimate(deadline float64) float64 {
	if b.Var <= 0 {
		if deadline >= b.Mean {
			return 1
		}
		return 0
	}
	return stats.NormalCDF((deadline - b.Mean) / math.Sqrt(b.Var))
}

// AnalyticBound computes the Bound of a template executed on instances of
// the given type. It is the cheap pre-pass of Search: O(template size),
// no sampling, no scheduling.
func AnalyticBound(t ndwf.Template, typ cloud.InstanceType) (Bound, error) {
	if err := t.Validate(); err != nil {
		return Bound{}, err
	}
	min, mean, vr := boundBlock(t.Root, typ.Speedup())
	return Bound{MinMakespan: min, Mean: mean, Var: vr}, nil
}

// boundBlock returns (certain min critical path, mean estimate, variance
// estimate) of one block at the given speedup. The propagation rules:
//
//	Task: work/speed exactly (no spread at the block level).
//	Seq:  sums — blocks are serialized through their head/tail wiring, so
//	      realized critical paths concatenate (mins add as a valid bound;
//	      means and variances add under independence).
//	Par:  min is the max of branch mins (every branch must complete);
//	      mean is the max of branch means and var that branch's var — a
//	      documented underestimate of E[max], fine for ordering.
//	Xor:  min is the min over branches (the realization is free to take
//	      the shortest); mean/var follow the mixture formulas.
//	Loop: min is one iteration; the iteration count N is truncated
//	      geometric, so mean = E[N]·m and var = E[N]·v + Var[N]·m² (sum of
//	      a random number of iid bodies).
func boundBlock(b ndwf.Block, speed float64) (min, mean, vr float64) {
	switch v := b.(type) {
	case ndwf.Task:
		t := v.Work / speed
		return t, t, 0
	case ndwf.Seq:
		for _, c := range v {
			m, e, vv := boundBlock(c, speed)
			min += m
			mean += e
			vr += vv
		}
		return min, mean, vr
	case ndwf.Par:
		for i, c := range v {
			m, e, vv := boundBlock(c, speed)
			if i == 0 || m > min {
				min = m
			}
			if i == 0 || e > mean {
				mean, vr = e, vv
			}
		}
		return min, mean, vr
	case ndwf.Xor:
		var e2 float64
		for i, c := range v.Branches {
			m, e, vv := boundBlock(c, speed)
			if i == 0 || m < min {
				min = m
			}
			p := v.Probs[i]
			mean += p * e
			e2 += p * (vv + e*e)
		}
		vr = e2 - mean*mean
		if vr < 0 {
			vr = 0 // float cancellation on near-deterministic mixtures
		}
		return min, mean, vr
	case ndwf.Loop:
		m, e, vv := boundBlock(v.Body, speed)
		en, varn := v.Iterations()
		return m, en * e, en*vv + varn*e*e
	}
	panic(fmt.Sprintf("sla: unknown block %T", b))
}

// BoundType maps a strategy name to the fastest instance type its
// schedules can use, for bounding purposes. Homogeneous catalog entries
// carry the paper's type suffix ("-s"/"-m"/"-l"/"-xl"); everything else —
// heterogeneous strategies, hedges, unknown names — conservatively maps
// to the platform's fastest type, so the bound can only get looser, never
// unsafe.
func BoundType(strategy string) cloud.InstanceType {
	switch {
	case strings.HasSuffix(strategy, "-xl"):
		return cloud.XLarge
	case strings.HasSuffix(strategy, "-s"):
		return cloud.Small
	case strings.HasSuffix(strategy, "-m"):
		return cloud.Medium
	case strings.HasSuffix(strategy, "-l"):
		return cloud.Large
	}
	types := cloud.InstanceTypes()
	return types[len(types)-1]
}
