package eventq

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPopOrder(t *testing.T) {
	var h Heap[int]
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		h.Push(tm, 0)
	}
	var got []float64
	for {
		tm, _, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, tm)
	}
	want := []float64{1, 2, 3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

func TestEmptyQueue(t *testing.T) {
	var h Heap[int]
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap returned an event")
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d", h.Len())
	}
}

// Peek reports what Pop returns next, ties in push order, and removes
// nothing; on an empty heap it reports false.
func TestPeekAgreesWithPop(t *testing.T) {
	var h Heap[int]
	if tm, v, ok := h.Peek(); ok || tm != 0 || v != 0 {
		t.Fatalf("Peek on empty heap = %v, %v, %v", tm, v, ok)
	}
	for i, tm := range []float64{3, 1, 2, 1, 3, 1} {
		h.Push(tm, i)
	}
	for n := h.Len(); n > 0; n-- {
		pt, pv, pok := h.Peek()
		if h.Len() != n {
			t.Fatalf("Peek changed Len from %d to %d", n, h.Len())
		}
		tm, v, ok := h.Pop()
		if !pok || !ok || pt != tm || pv != v {
			t.Fatalf("Peek = %v, %v, %v; Pop = %v, %v, %v", pt, pv, pok, tm, v, ok)
		}
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on drained heap reported an event")
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 10; i++ {
		h.Push(7, i)
	}
	var popped []int
	for {
		_, v, ok := h.Pop()
		if !ok {
			break
		}
		popped = append(popped, v)
	}
	for i := range popped {
		if popped[i] != i {
			t.Fatalf("simultaneous events popped out of order: %v", popped)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var h Heap[int]
	h.Push(10, 0)
	h.Push(20, 0)
	if tm, _, _ := h.Pop(); tm != 10 {
		t.Fatalf("first pop = %v", tm)
	}
	h.Push(5, 0)
	h.Push(15, 0)
	for _, w := range []float64{5, 15, 20} {
		tm, _, ok := h.Pop()
		if !ok || tm != w {
			t.Fatalf("pop = %v, want %v", tm, w)
		}
	}
}

// sim.Scratch keeps one heap across replays: Reset must keep the backing
// array and clear every slot of it, popped ones included, so a finished
// replay pins nothing; and Grow must pre-size it, so a replay's pushes
// never reallocate.
func TestResetKeepsCapacityAndZeroes(t *testing.T) {
	var h Heap[*int]
	vals := make([]int, 69)
	for i := 0; i < 5; i++ {
		h.Push(float64(i), &vals[i])
	}
	h.Grow(64)
	base, c := &h.heap[:1][0], cap(h.heap)
	for i := 5; i < len(vals); i++ {
		h.Push(float64(i%7), &vals[i])
	}
	if cap(h.heap) != c || &h.heap[0] != base {
		t.Fatalf("64 pushes after Grow(64) reallocated: cap %d -> %d", c, cap(h.heap))
	}
	for i := 0; i < 10; i++ {
		h.Pop()
	}

	h.Reset()
	if h.Len() != 0 || cap(h.heap) != c {
		t.Fatalf("Reset left len %d cap %d, want 0 and %d", h.Len(), cap(h.heap), c)
	}
	if &h.heap[:1][0] != base {
		t.Fatal("Reset replaced the backing array")
	}
	for i, e := range h.heap[:cap(h.heap)] {
		if e != (entry[*int]{}) {
			t.Fatalf("slot %d = %+v after Reset, want zero", i, e)
		}
	}
}

// Property: under any interleaving of pushes and pops, with times that
// often repeat, every pop returns the earliest pending event, ties in
// push order.
func TestQuickHeapSorts(t *testing.T) {
	type ref struct {
		time float64
		id   int
	}
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := stats.NewRNG(seed)
		var h Heap[int]
		var pending []ref // sorted by (time, push order)
		popMatches := func() bool {
			tm, id, ok := h.Pop()
			if len(pending) == 0 {
				return !ok
			}
			want := pending[0]
			pending = pending[1:]
			return ok && tm == want.time && id == want.id
		}
		for id := 0; id < n; id++ {
			tm := float64(r.Intn(20))
			h.Push(tm, id)
			k := sort.Search(len(pending), func(j int) bool { return pending[j].time > tm })
			pending = slices.Insert(pending, k, ref{tm, id})
			if r.Intn(3) == 0 && !popMatches() {
				return false
			}
		}
		for len(pending) > 0 {
			if !popMatches() {
				return false
			}
		}
		return popMatches() && h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
