// Package eventq provides the discrete-event priority queue underlying
// the simulators in internal/sim and internal/online: a binary min-heap
// ordered by event time, with FIFO ordering among simultaneous events so
// simulation runs are fully deterministic.
//
// Heap[T] carries a flat payload per event. Both simulators use a small
// value struct that names the event's kind and its subject, and dispatch
// on the kind in their main loop, so pushing an event allocates nothing
// beyond the heap's amortized growth. Reset keeps the backing array and
// zeroes it, so a heap can live in a reusable scratch arena without
// pinning a finished run's payloads.
package eventq

// entry is one scheduled heap element.
type entry[T any] struct {
	time float64
	seq  uint64
	v    T
}

// Heap is a min-heap of timed events carrying payloads of type T. The zero
// value is an empty heap ready for use. Events pushed with equal times pop
// in push order. Heap is not safe for concurrent use; the simulators are
// single-threaded by design (virtual time must advance deterministically).
type Heap[T any] struct {
	heap []entry[T]
	next uint64
}

// Len returns the number of pending events.
func (h *Heap[T]) Len() int { return len(h.heap) }

// Grow ensures capacity for at least n more events without reallocating.
func (h *Heap[T]) Grow(n int) {
	if cap(h.heap)-len(h.heap) < n {
		heap := make([]entry[T], len(h.heap), len(h.heap)+n)
		copy(heap, h.heap)
		h.heap = heap
	}
}

// Reset empties the heap, keeping its backing capacity for reuse. Payloads
// in the capacity region are zeroed so a reused heap pins nothing alive.
func (h *Heap[T]) Reset() {
	clear(h.heap[:cap(h.heap)])
	h.heap = h.heap[:0]
	h.next = 0
}

// Push schedules an event. Events pushed with equal times pop in push
// order.
func (h *Heap[T]) Push(time float64, v T) {
	h.heap = append(h.heap, entry[T]{time: time, seq: h.next, v: v})
	h.next++
	h.up(len(h.heap) - 1)
}

// Pop removes and returns the earliest event's time and payload. The
// boolean is false when the heap is empty.
func (h *Heap[T]) Pop() (float64, T, bool) {
	if len(h.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap[last] = entry[T]{} // don't pin popped payloads in the capacity region
	h.heap = h.heap[:last]
	if last > 0 {
		h.down(0)
	}
	return top.time, top.v, true
}

// Peek returns the earliest event's time and payload without removing
// it: what Pop would return next. The boolean is false when the heap is
// empty.
func (h *Heap[T]) Peek() (float64, T, bool) {
	if len(h.heap) == 0 {
		var zero T
		return 0, zero, false
	}
	return h.heap[0].time, h.heap[0].v, true
}

// less orders by time, then insertion sequence.
func (h *Heap[T]) less(i, j int) bool {
	if h.heap[i].time != h.heap[j].time {
		return h.heap[i].time < h.heap[j].time
	}
	return h.heap[i].seq < h.heap[j].seq
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
}
