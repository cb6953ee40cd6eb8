package obs

import "testing"

// A run configured without a recorder records nothing: every
// instrumentation site guards its Record call behind a nil check. That
// guarded path must cost zero allocations — the obs layer's "pay only
// when watching" contract.
func TestNilRecorderPathAllocsNothing(t *testing.T) {
	var rec Recorder
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if rec != nil {
				rec.Record(Event{Kind: KindTaskStart, T: float64(i), VM: 1, Task: int32(i)})
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder path: %.1f allocs/run, want 0", allocs)
	}
}

// A live Collector with preallocated capacity must also record without
// per-event allocations, so the replay path's cost is the append alone.
func TestCollectorRecordStaysAmortized(t *testing.T) {
	col := &Collector{Events: make([]Event, 0, 64)}
	allocs := testing.AllocsPerRun(100, func() {
		col.Events = col.Events[:0]
		for i := 0; i < 64; i++ {
			col.Record(Event{Kind: KindTaskStart, T: float64(i)})
		}
	})
	if allocs != 0 {
		t.Fatalf("preallocated Collector: %.1f allocs/run, want 0", allocs)
	}
}
