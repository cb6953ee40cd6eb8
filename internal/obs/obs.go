// Package obs is the repository's unified telemetry layer: structured
// lifecycle events for the discrete-event simulator and the online
// harness, request traces and the daemon's flight recorder, and exporters
// (NDJSON, Chrome trace-event/Perfetto JSON) that turn an event stream
// into an explorable execution timeline. The daemon's metrics are not
// here: internal/service keeps its fixed set of series itself.
//
// The layer is built for a hot path that almost never records: every
// emission site guards on a nil Recorder, the Event struct is a flat
// value (no per-event allocation), and with recording disabled the cost
// of instrumentation is one predictable branch. The one event sink is
// deliberately dumb — an append-only Collector — so that the stream's
// ordering is exactly the emission ordering, which the simulator
// guarantees to be deterministic for a given seed. That determinism is
// load-bearing: two runs with the same inputs produce byte-identical
// NDJSON, at any sweep worker count, which makes event streams diffable
// artifacts rather than best-effort logs.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind enumerates the lifecycle event types of the simulator, the online
// harness and the sweep's stream markers. The zero value is invalid, so
// an accidentally zero Event is recognizable. Every writer prints a kind
// by its String name, never by its number.
type Kind uint8

const (
	// Simulated-time events, emitted by internal/sim during a replay and
	// by internal/online during a run.

	// KindVMLeaseStart marks a lease opening: the VM is requested (and
	// billing starts). Value holds the boot lag; Label the instance type.
	KindVMLeaseStart Kind = iota + 1
	// KindVMBootDone marks the end of the boot lag: the VM is usable.
	KindVMBootDone
	// KindVMBTURollover marks a paid billing-unit boundary inside a lease:
	// holding the VM past this instant bought another BTU.
	KindVMBTURollover
	// KindVMLeaseStop marks the lease teardown. Value holds the lease cost.
	KindVMLeaseStop
	// KindVMCrash marks a lease lost to an injected failure.
	KindVMCrash
	// KindTaskQueued marks a task becoming ready: all inputs arrived.
	KindTaskQueued
	// KindTaskStart marks an execution attempt starting. Attempt counts
	// from 1; Value holds the planned execution time; Label the task name.
	KindTaskStart
	// KindTaskFinish marks an attempt completing successfully.
	KindTaskFinish
	// KindTaskFail marks a transient attempt abort. Value holds the
	// execution time burned by the failed attempt.
	KindTaskFail
	// KindTaskRetry marks a failed task re-queued on the same VM. Value
	// holds the backoff delay.
	KindTaskRetry
	// KindTaskResubmit marks a failed task moved to a fresh VM (the VM
	// field names the replacement lease).
	KindTaskResubmit
	// KindTransferStart marks a cross-VM data movement being dispatched
	// from the VM field to the consumer task. Value holds the data size.
	KindTransferStart
	// KindTransferEnd marks the transfer's arrival at the consumer's VM.
	KindTransferEnd

	// KindCellStart is a stream marker separating the per-cell event
	// groups of a sweep: the events that follow, up to the next marker,
	// belong to the cell named by Label. T is always zero.
	KindCellStart

	// KindVMPreempt marks a spot lease reclaimed by the provider
	// (internal/market) — the market layer's crash cause, counted apart
	// from KindVMCrash.
	KindVMPreempt
	// KindVMFallback marks the teardown-time accounting of an on-demand
	// lease that replaced a preempted spot lease; Value holds the premium
	// paid over what the original spot terms would have billed.
	KindVMFallback
)

// String returns the snake_case wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindVMLeaseStart:
		return "vm_lease_start"
	case KindVMBootDone:
		return "vm_boot_done"
	case KindVMBTURollover:
		return "vm_btu_rollover"
	case KindVMLeaseStop:
		return "vm_lease_stop"
	case KindVMCrash:
		return "vm_crash"
	case KindTaskQueued:
		return "task_queued"
	case KindTaskStart:
		return "task_start"
	case KindTaskFinish:
		return "task_finish"
	case KindTaskFail:
		return "task_fail"
	case KindTaskRetry:
		return "task_retry"
	case KindTaskResubmit:
		return "task_resubmit"
	case KindTransferStart:
		return "transfer_start"
	case KindTransferEnd:
		return "transfer_end"
	case KindCellStart:
		return "cell_start"
	case KindVMPreempt:
		return "vm_preempt"
	case KindVMFallback:
		return "vm_fallback"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one telemetry record: a flat value struct so that emitting
// one allocates nothing. Fields that do not apply to a kind hold -1 (VM,
// Task), 0 (Attempt, Value) or "" (Label); see the Kind constants for
// each kind's field semantics.
type Event struct {
	Kind    Kind
	T       float64 // simulated seconds
	VM      int32   // VM/lease-incarnation index, -1 when not applicable
	Task    int32   // task ID, -1 when not applicable
	Attempt int32   // execution attempt, counted from 1
	Value   float64 // kind-specific quantity (duration, bytes, cost)
	Label   string  // kind-specific annotation (instance type, task name, cell)
}

// Recorder receives telemetry events from one producer goroutine (a
// replay, an online run; a sweep replays its cells' streams after its
// workers join). Emission sites hold a Recorder and skip the call when it
// is nil — the zero-cost disabled path.
type Recorder interface {
	Record(Event)
}

// Collector is an unbounded, append-only Recorder for single-goroutine
// producers (a CLI run, one sweep cell). It is not safe for concurrent
// use.
type Collector struct {
	Events []Event
}

// Record appends the event.
func (c *Collector) Record(ev Event) { c.Events = append(c.Events, ev) }

// jsonEvent is the NDJSON wire shape of an Event. Field order is fixed by
// the struct, so the encoding is deterministic.
type jsonEvent struct {
	Kind    string  `json:"kind"`
	T       float64 `json:"t"`
	VM      int32   `json:"vm"`
	Task    int32   `json:"task"`
	Attempt int32   `json:"attempt,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Label   string  `json:"label,omitempty"`
}

// WriteNDJSON writes the events as newline-delimited JSON, one event per
// line, in stream order. The output is byte-deterministic: the same
// event stream always encodes identically.
func WriteNDJSON(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		je := jsonEvent{
			Kind:    ev.Kind.String(),
			T:       ev.T,
			VM:      ev.VM,
			Task:    ev.Task,
			Attempt: ev.Attempt,
			Value:   ev.Value,
			Label:   ev.Label,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WallSpan is one wall-clock execution span of a sweep: a grid cell
// evaluated by one worker. Offsets are measured from the sweep's start,
// so spans from one run share a common origin.
type WallSpan struct {
	// Name labels the span (workflow/scenario/strategy).
	Name string
	// Worker is the index of the sweep worker that evaluated the cell.
	Worker int
	// Start and End delimit the evaluation, relative to the sweep start.
	Start, End time.Duration
}
