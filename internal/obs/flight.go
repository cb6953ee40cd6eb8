package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Flight is the always-on request flight recorder: a fixed-capacity ring
// of per-request records (trace ID, route, status, outcome, spans),
// overwriting the oldest once full. Unlike the event recorders it runs
// unconditionally — its contract is a fixed, tiny cost per request (one
// mutex round trip and one slot store, no allocation; see
// TestFlightRecordAllocBudget), so the last N requests are always
// inspectable after the fact via /debug/flight.
type Flight struct {
	mu   sync.Mutex
	buf  []FlightRecord
	next int
	full bool
}

// FlightRecord is one request's black-box entry. Start and Duration are
// seconds on the server clock (seconds since server start).
type FlightRecord struct {
	Trace    TraceID
	Route    string // endpoint label ("schedule", "sla", ...)
	Status   int    // HTTP status answered
	Start    float64
	Duration float64
	Outcome  string // "ok", "cache_hit", "rejected", "timeout", "draining", "error"
	Spans    []Span // the request trace's spans, ownership transferred
}

// NewFlight returns a recorder holding up to capacity records (min 1).
func NewFlight(capacity int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	return &Flight{buf: make([]FlightRecord, capacity)}
}

// Record stores one request record, overwriting the oldest when full.
// The record's span slice is stored as-is (no copy): callers hand over
// ownership, typically via Trace.TakeSpans.
func (f *Flight) Record(r FlightRecord) {
	f.mu.Lock()
	f.buf[f.next] = r
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Records returns the retained records, oldest first.
func (f *Flight) Records() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]FlightRecord(nil), f.buf[:f.next]...)
	}
	out := make([]FlightRecord, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// jsonFlight is the NDJSON wire shape of a FlightRecord.
type jsonFlight struct {
	Trace    string     `json:"trace"`
	Route    string     `json:"route"`
	Status   int        `json:"status"`
	Start    float64    `json:"start_s"`
	Duration float64    `json:"duration_s"`
	Outcome  string     `json:"outcome"`
	Spans    []jsonSpan `json:"spans,omitempty"`
}

// WriteFlightNDJSON writes the records as newline-delimited JSON, one
// request per line (spans inline), oldest first. Byte-deterministic for
// a given record set.
func WriteFlightNDJSON(w io.Writer, records []FlightRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		jf := jsonFlight{
			Trace:    r.Trace.String(),
			Route:    r.Route,
			Status:   r.Status,
			Start:    r.Start,
			Duration: r.Duration,
			Outcome:  r.Outcome,
		}
		for _, sp := range r.Spans {
			// Trace omitted per span: the record line already carries it.
			jf.Spans = append(jf.Spans, toJSONSpan(TraceID{}, sp))
		}
		if err := enc.Encode(jf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SpanSets converts flight records to the Chrome-trace writer's
// per-request track shape, labeling each track with route, outcome and
// trace ID.
func SpanSets(records []FlightRecord) []SpanSet {
	out := make([]SpanSet, 0, len(records))
	for _, r := range records {
		out = append(out, SpanSet{
			Trace: r.Trace,
			Name:  r.Route + " " + r.Outcome + " " + r.Trace.String()[:8],
			Spans: r.Spans,
		})
	}
	return out
}
