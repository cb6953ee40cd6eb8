// Package ndwf models the paper's second workflow class (Sect. I):
// non-deterministic workflows whose execution path is only determined at
// runtime through loop, split and join constructs (the class the cited
// biCPA work targets). A Template composes tasks with Seq/Par/Xor/Loop
// blocks; Sample resolves the runtime choices into a concrete DAG instance
// that every scheduler in this repository can plan. The package is the
// model only: package sla samples and schedules many instances to expose
// the makespan/cost distribution a strategy induces on a
// non-deterministic application.
package ndwf

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dag"
	"repro/internal/stats"
)

// Block is one construct of a non-deterministic workflow template.
type Block interface {
	// expand adds this block's sampled task instances to x's workflow,
	// wiring them after the heads, and returns the block's tail tasks.
	// Both are spans of x's arena; heads is empty only for the template's
	// first block.
	expand(x *expander, heads span) span
	// validate checks the construct's static parameters.
	validate() error
}

// expander is one Sample in progress: the instance under construction,
// the stream that resolves its choices, and one append-only arena that
// holds every head and tail set as a span. A Par keeps its branches'
// tail spans on the spans stack until it joins them.
type expander struct {
	w     *dag.Workflow
	r     stats.RNG
	arena []dag.TaskID
	spans []span
	// buf and spanBuf back arena and spans, so a template of a few dozen
	// tasks expands without growing either.
	buf     [32]dag.TaskID
	spanBuf [8]span
}

// span is the task IDs arena[lo:hi] of an expander.
type span struct{ lo, hi int }

// Task is a deterministic leaf: one task with a fixed reference execution
// time, receiving Data bytes from each predecessor.
type Task struct {
	Name string
	Work float64
	Data float64
}

func (t Task) expand(x *expander, heads span) span {
	id := x.w.AddTask(t.Name, t.Work)
	for _, h := range x.arena[heads.lo:heads.hi] {
		x.w.AddEdge(h, id, t.Data)
	}
	x.arena = append(x.arena, id)
	return span{len(x.arena) - 1, len(x.arena)}
}

func (t Task) validate() error {
	if t.Work < 0 || t.Data < 0 {
		return fmt.Errorf("ndwf: task %q has negative work or data", t.Name)
	}
	return nil
}

// Seq runs blocks one after another.
type Seq []Block

func (s Seq) expand(x *expander, heads span) span {
	for _, b := range s {
		heads = b.expand(x, heads)
	}
	return heads
}

func (s Seq) validate() error {
	if len(s) == 0 {
		return fmt.Errorf("ndwf: empty Seq")
	}
	for _, b := range s {
		if err := b.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Par runs all branches concurrently (an AND-split with implicit join at
// the next block).
type Par []Block

// expand joins the branches' tails, in branch order, into one span at the
// end of the arena.
func (p Par) expand(x *expander, heads span) span {
	base := len(x.spans)
	for _, b := range p {
		x.spans = append(x.spans, b.expand(x, heads))
	}
	lo := len(x.arena)
	for _, t := range x.spans[base:] {
		x.arena = append(x.arena, x.arena[t.lo:t.hi]...)
	}
	x.spans = x.spans[:base]
	return span{lo, len(x.arena)}
}

func (p Par) validate() error {
	if len(p) == 0 {
		return fmt.Errorf("ndwf: empty Par")
	}
	for _, b := range p {
		if err := b.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Xor is the non-deterministic split: at runtime exactly one branch
// executes, branch i with probability Probs[i]. Probabilities must sum to
// one.
type Xor struct {
	Branches []Block
	Probs    []float64
}

func (o Xor) expand(x *expander, heads span) span {
	u := x.r.Float64()
	acc := 0.0
	for i, b := range o.Branches {
		acc += o.Probs[i]
		if u < acc || i == len(o.Branches)-1 {
			return b.expand(x, heads)
		}
	}
	panic("ndwf: unreachable")
}

func (x Xor) validate() error {
	if len(x.Branches) == 0 || len(x.Branches) != len(x.Probs) {
		return fmt.Errorf("ndwf: Xor with %d branches and %d probs", len(x.Branches), len(x.Probs))
	}
	sum := 0.0
	for _, p := range x.Probs {
		if p < 0 {
			return fmt.Errorf("ndwf: negative probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ndwf: Xor probabilities sum to %v", sum)
	}
	for _, b := range x.Branches {
		if err := b.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Loop is the non-deterministic iteration: the body executes once, then
// repeats with probability Repeat after each iteration, bounded by Max
// total iterations.
type Loop struct {
	Body   Block
	Repeat float64
	Max    int
}

func (l Loop) expand(x *expander, heads span) span {
	heads = l.Body.expand(x, heads)
	for i := 1; i < l.Max && x.r.Float64() < l.Repeat; i++ {
		heads = l.Body.expand(x, heads)
	}
	return heads
}

func (l Loop) validate() error {
	if l.Body == nil {
		return fmt.Errorf("ndwf: Loop without body")
	}
	if l.Repeat < 0 || l.Repeat >= 1 {
		return fmt.Errorf("ndwf: Loop repeat probability %v outside [0, 1)", l.Repeat)
	}
	if l.Max <= 0 {
		return fmt.Errorf("ndwf: Loop max %d", l.Max)
	}
	return l.Body.validate()
}

// Iterations returns E[N] and Var[N] of the loop's truncated geometric
// iteration count: P(N=k) = p^(k-1)(1-p) for k < Max, P(N=Max) =
// p^(Max-1), with p = Repeat.
func (l Loop) Iterations() (mean, vr float64) {
	p, max := l.Repeat, l.Max
	var e, e2 float64
	for k := 1; k < max; k++ {
		pk := math.Pow(p, float64(k-1)) * (1 - p)
		e += float64(k) * pk
		e2 += float64(k) * float64(k) * pk
	}
	tail := math.Pow(p, float64(max-1))
	e += float64(max) * tail
	e2 += float64(max) * float64(max) * tail
	vr = e2 - e*e
	if vr < 0 {
		vr = 0
	}
	return e, vr
}

// Template is a named non-deterministic workflow.
type Template struct {
	Name string
	Root Block
}

// Validate checks all construct parameters.
func (t Template) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("ndwf: template %q has no root", t.Name)
	}
	return t.Root.validate()
}

// Sample resolves the template's runtime choices with the given seed and
// returns a concrete, frozen DAG instance. Equal seeds yield identical
// instances.
func (t Template) Sample(seed uint64) (*dag.Workflow, error) {
	c, err := t.Check()
	if err != nil {
		return nil, err
	}
	return c.Sample(seed)
}

// Checked is a template that has passed Validate. A loop that samples one
// template many times checks it once and samples the Checked.
type Checked struct{ t Template }

// Check validates t for sampling.
func (t Template) Check() (Checked, error) {
	if err := t.Validate(); err != nil {
		return Checked{}, err
	}
	return Checked{t}, nil
}

// Sample is Template.Sample without the validation. The instance is the
// caller's to keep: it is a fresh Sampler's first.
func (c Checked) Sample(seed uint64) (*dag.Workflow, error) {
	return new(Sampler).Sample(c, seed)
}

// Sampler samples instances into one workflow it owns and reuses, with
// one expander, so a loop that is done with each instance before it
// samples the next allocates nothing per instance but its name. The zero
// value is ready for use; a Sampler is not safe for concurrent use.
type Sampler struct {
	x expander // x.w is the workflow
}

// Sample resolves the runtime choices of c with the given seed into the
// Sampler's workflow and returns it, frozen: bit for bit the instance
// Checked.Sample returns. The workflow, and every slice its queries
// return, stays valid only until the next call, which resets it.
func (s *Sampler) Sample(c Checked, seed uint64) (*dag.Workflow, error) {
	t := c.t
	// The instance is named t.Name#seed.
	var buf [64]byte
	name := string(strconv.AppendUint(append(append(buf[:0], t.Name...), '#'), seed, 10))
	x := &s.x
	if x.w == nil {
		// The first instance is laid out fresh, so the one Checked.Sample
		// hands out holds no scratch for a reuse that never comes.
		x.w = dag.New(name)
		x.arena, x.spans = x.buf[:0], x.spanBuf[:0]
	} else {
		x.w.Reset(name)
	}
	x.r = *stats.NewRNG(seed)
	x.arena, x.spans = x.arena[:0], x.spans[:0]
	t.Root.expand(x, span{})
	if err := x.w.Freeze(); err != nil {
		return nil, fmt.Errorf("ndwf: sampled instance invalid: %w", err)
	}
	return x.w, nil
}
