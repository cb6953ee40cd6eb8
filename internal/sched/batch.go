package sched

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/plan"
)

// Batch evaluates many catalog strategies against one frozen workflow and
// one option set, sharing the read-only state that is identical across
// them: the baseline HEFT + OneVMperTask-small schedule (which is both the
// paper's reference strategy and the starting point of every
// budget-constrained upgrade algorithm), its assignment skeleton, and one
// plan.Replayer whose scratch serves every load, trial and final replay
// of the upgrade loops. CPA-Eager's and GAIN's own Schedule run through a
// batch of one. HEFT rank vectors and level orders are already
// shared underneath via the frozen workflow's per-CostModel.Key memos, so
// a batch turns the 19-strategy sweep into a handful of batched passes
// over the same arrays instead of 19 cold starts.
//
// Sharing changes nothing observable: the baseline is deterministic (equal
// inputs, equal schedule), the replayer's costs are bit-identical to
// materialized TotalCost, and algorithms without batch support fall back
// to their plain Schedule path. A Batch is not safe for concurrent use;
// give each sweep worker its own.
type Batch struct {
	wf   *dag.Workflow
	opts Options

	inited     bool
	initErr    error
	seed       *plan.Schedule // caller-provided baseline, adopted by init
	base       *plan.Schedule
	baseAssign plan.Assignment
	rp         *plan.Replayer
	et, lc     [][]float64 // shared upgrade gain tables (see upgradeTables)
}

// batchScheduler is implemented by algorithms that can evaluate against a
// Batch's shared state.
type batchScheduler interface {
	scheduleBatch(b *Batch) (*plan.Schedule, error)
}

// NewBatch returns a batch evaluator for one workflow under one option
// set. The workflow is frozen on first use; baseline construction is lazy
// so a batch over strategies that never need it costs nothing.
func NewBatch(wf *dag.Workflow, opts Options) *Batch {
	opts.fill()
	return &Batch{wf: wf, opts: opts}
}

// NewBatchWithBaseline is NewBatch seeded with a prebuilt baseline
// schedule — the HEFT + OneVMperTask-small schedule of exactly this
// workflow and option set (the sweep driver builds one per pane anyway).
// The batch adopts it instead of rebuilding it on first use.
func NewBatchWithBaseline(wf *dag.Workflow, opts Options, base *plan.Schedule) *Batch {
	b := NewBatch(wf, opts)
	b.seed = base
	return b
}

// Workflow returns the workflow this batch evaluates against — callers
// holding one batch per pane use it to detect pane changes.
func (b *Batch) Workflow() *dag.Workflow { return b.wf }

// Schedule evaluates one strategy within the batch: batch-aware algorithms
// run against the shared baseline and replayer, everything else takes its
// ordinary Schedule path (which still shares the frozen workflow's memos).
func (b *Batch) Schedule(alg Algorithm) (*plan.Schedule, error) {
	if ba, ok := alg.(batchScheduler); ok {
		return ba.scheduleBatch(b)
	}
	return alg.Schedule(b.wf, b.opts)
}

func (b *Batch) init() error {
	if b.inited {
		return b.initErr
	}
	b.inited = true
	if err := b.wf.Freeze(); err != nil {
		b.initErr = fmt.Errorf("sched: %w", err)
		return b.initErr
	}
	base := b.seed
	if base == nil {
		var err error
		base, err = Baseline().Schedule(b.wf, b.opts)
		if err != nil {
			b.initErr = err
			return err
		}
	}
	rp, err := plan.NewReplayer(b.wf, b.opts.Platform, b.opts.Region, b.opts.Market)
	if err != nil {
		b.initErr = err
		return err
	}
	b.base = base
	b.baseAssign = plan.AssignmentOf(base)
	b.rp = rp
	b.et, b.lc = upgradeTables(b.wf, b.opts)
	return nil
}

// upgradeState loads the batch's baseline assignment into its replayer
// and returns an upgrade state over it, with the budget at budgetFactor
// times the baseline cost (paper Sect. IV: 2x for CPA-Eager, 4x for
// Gain). It returns the load's error for an assignment that is not one
// valid task per VM. The assignment is cloned — upgrade loops mutate it —
// while the baseline schedule, the gain tables and the replayer scratch
// are shared across all strategies in the batch.
func (b *Batch) upgradeState(budgetFactor float64) (*upgradeState, error) {
	if err := b.init(); err != nil {
		return nil, err
	}
	assign := b.baseAssign.Clone()
	if _, err := b.rp.Load(assign); err != nil {
		return nil, err
	}
	u := &upgradeState{
		wf:     b.wf,
		opts:   b.opts,
		assign: assign,
		taskVM: make([]int, b.wf.Len()),
		base:   b.base,
		rp:     b.rp,
		et:     b.et,
		lc:     b.lc,
		budget: budgetFactor * b.base.TotalCost(),
	}
	for i, q := range assign.Queues {
		u.taskVM[q[0]] = i
	}
	return u, nil
}
