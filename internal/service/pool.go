package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
)

// errQueueFull is returned by Submit when the bounded submission queue
// cannot take another job — the admission-control signal the handlers map
// to 429 + Retry-After.
var errQueueFull = errors.New("service: submission queue full")

// panicError is a job's recovered panic: its value and the stack of the
// goroutine that raised it.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("service: planning panicked: %v", e.value) }

// job is one unit of planning work queued for the pool.
type job struct {
	ctx  context.Context
	run  func(context.Context) (any, error)
	res  any
	err  error
	done chan struct{}
}

// pool is a fixed-size worker pool draining a bounded FIFO queue.
// Admission is non-blocking: a full queue rejects immediately rather than
// holding the caller (and its HTTP connection) hostage. A job whose
// caller gives up while it is queued leaves the queue at once, so the
// bound counts only live work and a burst of abandoned requests can
// occupy neither queue slots nor workers.
type pool struct {
	depth int
	wg    sync.WaitGroup
	// onPanic, when set, learns of every job that panicked, whether or not
	// its caller still waits.
	onPanic func(*panicError)

	mu     sync.Mutex
	ready  sync.Cond // signalled when a job is queued or the pool closes
	queue  []*job    // admitted jobs no worker has started, oldest first
	closed bool
}

// newPool starts workers goroutines draining a queue of the given depth.
// A job that panics fails with a *panicError, which onPanic (if not nil)
// also receives, and its worker goes on to the next job.
func newPool(workers, depth int, onPanic func(*panicError)) *pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &pool{depth: depth, onPanic: onPanic, queue: make([]*job, 0, depth)}
	p.ready.L = &p.mu
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := p.next(); j != nil; j = p.next() {
		if err := j.ctx.Err(); err != nil {
			j.err = err
		} else {
			j.res, j.err = p.run(j)
		}
		close(j.done)
	}
}

// run runs j, recovering a panic into a *panicError: a planner's panic on
// a crafted request must cost that request, not the daemon.
func (p *pool) run(j *job) (res any, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &panicError{value: v, stack: debug.Stack()}
			if p.onPanic != nil {
				p.onPanic(pe)
			}
			res, err = nil, pe
		}
	}()
	return j.run(j.ctx)
}

// next waits for a queued job and dequeues it; it returns nil once the
// pool is closed and drained.
func (p *pool) next() *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.closed {
			return nil
		}
		p.ready.Wait()
	}
	j := p.queue[0]
	p.queue = slices.Delete(p.queue, 0, 1)
	return j
}

// Submit enqueues run and waits for its result. It returns errQueueFull
// without blocking when the queue is saturated, and ctx.Err() if the
// context expires before the job completes. A job still queued then
// leaves the queue unrun; one already running finishes, unawaited.
func (p *pool) Submit(ctx context.Context, run func(context.Context) (any, error)) (any, error) {
	j := &job{ctx: ctx, run: run, done: make(chan struct{})}

	p.mu.Lock()
	if p.closed || len(p.queue) >= p.depth {
		p.mu.Unlock()
		return nil, errQueueFull
	}
	p.queue = append(p.queue, j)
	p.ready.Signal()
	p.mu.Unlock()

	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		p.mu.Lock()
		if i := slices.Index(p.queue, j); i >= 0 {
			p.queue = slices.Delete(p.queue, i, i+1)
		}
		p.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Depth returns the current number of queued (not yet started) jobs.
func (p *pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close stops admission, drains every queued job, and waits for the
// workers to exit. Safe to call more than once.
func (p *pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
