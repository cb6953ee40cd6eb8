package obs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/stats"
)

// This file is the request-scoped tracing layer: Dapper-style wall-clock
// spans carrying a W3C trace context through the serving stack. A Trace
// is one request's span collection; emission sites hold a *Trace (usually
// fished out of a context.Context) and no-op when it is nil, mirroring
// the Recorder contract — tracing disabled costs one branch and zero
// allocations. Span identity is derived deterministically from the trace
// ID and a per-trace sequence number, so the span *structure* (IDs,
// names, parentage) of a request is reproducible; only the timestamps
// carry wall-clock noise.

// TraceID is a 16-byte W3C trace identifier. The zero value is invalid
// (the traceparent spec reserves all-zero IDs), which doubles as the
// "no trace" sentinel.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier; zero means "no parent".
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// DeriveTraceID hashes the given parts into a deterministic trace ID —
// how the service mints IDs for requests arriving without a traceparent
// header, keyed on the request ID, so a replayed request traces
// identically. The result is never zero.
func DeriveTraceID(parts ...string) TraceID {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var t TraceID
	copy(t[:], h.Sum(nil))
	if t.IsZero() {
		t[0] = 1 // the spec forbids all-zero trace IDs
	}
	return t
}

// Traceparent renders the W3C traceparent header (version 00, sampled
// flag set): "00-<trace-id>-<span-id>-01".
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header. It accepts version 00
// headers with non-zero IDs and reports ok=false otherwise, so callers
// fall back to minting their own trace ID rather than erroring a request
// over a malformed header.
func ParseTraceparent(header string) (t TraceID, s SpanID, ok bool) {
	if len(header) != 55 || header[0] != '0' || header[1] != '0' ||
		header[2] != '-' || header[35] != '-' || header[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(header[3:35])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if _, err := hex.Decode(s[:], []byte(header[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if t.IsZero() || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// Attr is one span annotation. A flat pair rather than a map keeps span
// construction allocation-light and the NDJSON encoding deterministic
// (attrs render in insertion order).
type Attr struct {
	Key   string
	Value string
}

// Span is one named wall-clock interval of a trace. Start and End are
// seconds on the trace's clock (the service uses seconds since server
// start); End is zero while the span is open.
type Span struct {
	ID     SpanID
	Parent SpanID // zero for the root span
	Name   string
	Start  float64
	End    float64
	Attrs  []Attr
}

// Trace collects the spans of one request. It is safe for concurrent use
// — stage spans are started and ended from pool workers while the
// handler goroutine owns the root. All methods are nil-receiver safe:
// a nil *Trace is the disabled path and costs one branch.
type Trace struct {
	id     TraceID
	remote SpanID // inbound traceparent's span ID; parents the root span

	mu    sync.Mutex
	seq   uint64
	base  uint64 // span-ID generator state, derived from the trace ID
	spans []Span
	taken bool // TakeSpans handed spans away; the trace records nothing more
	clock func() float64
}

// NewTrace starts an empty trace. remote is the inbound traceparent's
// span ID (zero when the request opened the trace); clock supplies span
// timestamps and must be monotonic — nil selects a clock that always
// reads zero, which keeps tests deterministic.
func NewTrace(id TraceID, remote SpanID, clock func() float64) *Trace {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	return &Trace{
		id:     id,
		remote: remote,
		base:   binary.BigEndian.Uint64(id[:8]) ^ binary.BigEndian.Uint64(id[8:]),
		clock:  clock,
	}
}

// ID returns the trace ID (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// nextSpanID derives span identity from the trace ID and the sequence
// number via splitmix64 — deterministic for a given trace, no RNG state.
// Callers hold t.mu.
func (t *Trace) nextSpanID() SpanID {
	t.seq++
	z := stats.Mix64(t.base + t.seq*stats.GoldenGamma)
	if z == 0 {
		z = 1
	}
	var s SpanID
	binary.BigEndian.PutUint64(s[:], z)
	return s
}

// SpanHandle refers to one started span. The zero value (from a nil
// trace) no-ops on every method, so instrumentation sites never branch
// themselves; so does every handle of a trace after its TakeSpans.
type SpanHandle struct {
	t   *Trace
	idx int
	id  SpanID
}

// StartSpan opens a span under the given parent (zero parents it on the
// inbound remote span, i.e. makes it the root). Nil-safe; after TakeSpans
// it records nothing and returns the zero handle.
func (t *Trace) StartSpan(name string, parent SpanID) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.mu.Lock()
	if t.taken {
		t.mu.Unlock()
		return SpanHandle{}
	}
	id := t.nextSpanID()
	if parent.IsZero() {
		parent = t.remote
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Start: t.clock(),
	})
	h := SpanHandle{t: t, idx: len(t.spans) - 1, id: id}
	t.mu.Unlock()
	return h
}

// ID returns the span's ID (zero for a no-op handle).
func (h SpanHandle) ID() SpanID { return h.id }

// SetAttr annotates the span. No-op on the zero handle and after the
// trace's TakeSpans.
func (h SpanHandle) SetAttr(key, value string) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	if !h.t.taken {
		sp := &h.t.spans[h.idx]
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	}
	h.t.mu.Unlock()
}

// End closes the span at the current clock reading. No-op on the zero
// handle and after the trace's TakeSpans; ending twice keeps the first
// end time.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	if h.t.taken {
		h.t.mu.Unlock()
		return
	}
	sp := &h.t.spans[h.idx]
	if sp.End == 0 {
		sp.End = h.t.clock()
		if sp.End == 0 {
			// A zero-reading clock (tests) still marks the span closed.
			sp.End = sp.Start
		}
	}
	h.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// TakeSpans hands the span slice to the caller and retires the trace —
// the flight recorder's zero-copy path: the request is over, so
// ownership transfers without copying. Work the request left running (a
// plan that outlived its timeout) may still hold span handles; from here
// on they and StartSpan no-op, so nothing writes into the handed-over
// slice.
func (t *Trace) TakeSpans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans, t.taken = nil, true
	return out
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceCtxKey and spanCtxKey carry the request trace and the current
// parent span through context — how stage instrumentation in the worker
// pool finds the trace its request belongs to.
type (
	traceCtxKey struct{}
	spanCtxKey  struct{}
)

// ContextWithTrace returns ctx carrying the trace.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the context's trace, or nil — the disabled path.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// ContextWithSpan returns ctx with the given span as the current parent.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanFrom returns the context's current parent span ID (zero if none).
func SpanFrom(ctx context.Context) SpanID {
	id, _ := ctx.Value(spanCtxKey{}).(SpanID)
	return id
}

// StartSpanCtx opens a span as a child of the context's current parent
// and returns a context in which the new span is the parent. When the
// context carries no trace it returns the zero handle and ctx unchanged
// — zero allocations, the tracing-off hot path.
func StartSpanCtx(ctx context.Context, name string) (SpanHandle, context.Context) {
	t := TraceFrom(ctx)
	if t == nil {
		return SpanHandle{}, ctx
	}
	h := t.StartSpan(name, SpanFrom(ctx))
	return h, ContextWithSpan(ctx, h.id)
}

// jsonSpan is the NDJSON wire shape of a Span. Attrs flatten to an
// ordered list of {key, value} objects so the encoding is deterministic.
type jsonSpan struct {
	Trace  string     `json:"trace,omitempty"`
	ID     string     `json:"id"`
	Parent string     `json:"parent,omitempty"`
	Name   string     `json:"name"`
	Start  float64    `json:"start_s"`
	End    float64    `json:"end_s"`
	Attrs  []jsonAttr `json:"attrs,omitempty"`
}

type jsonAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

func toJSONSpan(trace TraceID, sp Span) jsonSpan {
	js := jsonSpan{
		ID: sp.ID.String(), Name: sp.Name, Start: sp.Start, End: sp.End,
	}
	if !trace.IsZero() {
		js.Trace = trace.String()
	}
	if !sp.Parent.IsZero() {
		js.Parent = sp.Parent.String()
	}
	for _, a := range sp.Attrs {
		js.Attrs = append(js.Attrs, jsonAttr{Key: a.Key, Value: a.Value})
	}
	return js
}

// SpanSet is one request's spans under a display name — the unit the
// Chrome-trace writer renders as a per-request track.
type SpanSet struct {
	Trace TraceID
	Name  string
	Spans []Span
}

// spanSetName returns the track label, falling back to the trace ID.
func (s SpanSet) label() string {
	if s.Name != "" {
		return s.Name
	}
	if !s.Trace.IsZero() {
		return s.Trace.String()
	}
	return "request"
}
