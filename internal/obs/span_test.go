package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("wfservd", "req-000001")
	tr := NewTrace(tid, SpanID{}, nil)
	root := tr.StartSpan("request", SpanID{})
	header := Traceparent(tid, root.ID())
	if len(header) != 55 || !strings.HasPrefix(header, "00-") {
		t.Fatalf("traceparent = %q", header)
	}
	gotT, gotS, ok := ParseTraceparent(header)
	if !ok || gotT != tid || gotS != root.ID() {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v", header, gotT, gotS, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                 // wrong version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",                 // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",                 // zero span
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",                 // bad hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra-junk-tail", // wrong length
		"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                 // bad separator
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	tid, sid, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok || tid.String() != "0af7651916cd43dd8448eb211c80319c" || sid.String() != "b7ad6b7169203331" {
		t.Fatalf("valid header rejected: %v %v %v", tid, sid, ok)
	}
}

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("wfservd", "req-000001")
	b := DeriveTraceID("wfservd", "req-000001")
	c := DeriveTraceID("wfservd", "req-000002")
	if a != b {
		t.Error("same parts, different trace IDs")
	}
	if a == c {
		t.Error("different parts, same trace ID")
	}
	if a.IsZero() {
		t.Error("derived trace ID is zero")
	}
}

func TestTraceSpanStructureDeterministic(t *testing.T) {
	build := func() []Span {
		tr := NewTrace(DeriveTraceID("x"), SpanID{}, nil)
		root := tr.StartSpan("request", SpanID{})
		child, _ := StartSpanCtx(ContextWithSpan(ContextWithTrace(context.Background(), tr), root.ID()), "plan")
		child.SetAttr("strategy", "GAIN")
		child.End()
		root.End()
		return tr.Spans()
	}
	a, b := build(), build()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("span counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent || a[i].Name != b[i].Name {
			t.Errorf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[1].Parent != a[0].ID {
		t.Errorf("child parent = %v, want root %v", a[1].Parent, a[0].ID)
	}
	if a[0].ID == a[1].ID {
		t.Error("root and child share a span ID")
	}
}

func TestTraceRemoteParentsRoot(t *testing.T) {
	_, remote, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	tr := NewTrace(DeriveTraceID("y"), remote, nil)
	root := tr.StartSpan("request", SpanID{})
	spans := tr.Spans()
	if spans[0].Parent != remote {
		t.Errorf("root parent = %v, want inbound remote %v", spans[0].Parent, remote)
	}
	if root.ID().IsZero() {
		t.Error("root span ID is zero")
	}
}

func TestNilTraceIsFreeAndSafe(t *testing.T) {
	var tr *Trace
	h := tr.StartSpan("x", SpanID{})
	h.SetAttr("k", "v")
	h.End()
	if tr.Len() != 0 || tr.Spans() != nil || tr.TakeSpans() != nil {
		t.Error("nil trace retained state")
	}
	if !tr.ID().IsZero() {
		t.Error("nil trace has identity")
	}

	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		h, ctx2 := StartSpanCtx(ctx, "stage")
		h.SetAttr("k", "v")
		h.End()
		if ctx2 != ctx {
			t.Fatal("untraced context changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced StartSpanCtx path: %.1f allocs/run, want 0", allocs)
	}
}

func TestSpansNDJSON(t *testing.T) {
	clock := 0.0
	tr := NewTrace(DeriveTraceID("z"), SpanID{}, func() float64 { clock += 1.5; return clock })
	root := tr.StartSpan("request", SpanID{})
	child := tr.StartSpan("plan", root.ID())
	child.SetAttr("endpoint", "sla")
	child.End()
	root.End()

	// The flight recorder's NDJSON lines carry spans in this shape.
	ndjson := func() []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, sp := range tr.Spans() {
			if err := enc.Encode(toJSONSpan(tr.ID(), sp)); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	buf := ndjson()
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d, want 2:\n%s", len(lines), buf)
	}
	var got jsonSpan
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if got.Name != "plan" || got.Trace != tr.ID().String() || got.Parent != root.ID().String() {
		t.Errorf("span line = %+v", got)
	}
	if len(got.Attrs) != 1 || got.Attrs[0].Key != "endpoint" || got.Attrs[0].Value != "sla" {
		t.Errorf("attrs = %+v", got.Attrs)
	}
	if got.End <= got.Start {
		t.Errorf("span interval [%v, %v] not positive", got.Start, got.End)
	}

	// Byte determinism.
	if !bytes.Equal(buf, ndjson()) {
		t.Error("two NDJSON renderings differ")
	}
}

func TestChromeTraceRequestTracks(t *testing.T) {
	clock := 0.0
	tr := NewTrace(DeriveTraceID("req"), SpanID{}, func() float64 { clock += 0.25; return clock })
	root := tr.StartSpan("POST /v1/sla", SpanID{})
	stage := tr.StartSpan("sla_search", root.ID())
	stage.End()
	root.End()

	sets := []SpanSet{{Trace: tr.ID(), Name: "sla ok " + tr.ID().String()[:8], Spans: tr.Spans()}}
	var buf bytes.Buffer
	if err := WriteChromeTraceSpans(&buf, nil, nil, sets); err != nil {
		t.Fatal(err)
	}
	recs := decodeTrace(t, buf.Bytes())
	var procName, threadName string
	spans := map[string]bool{}
	for _, ev := range recs {
		if ev["ph"] == "M" && ev["name"] == "process_name" && ev["pid"] == float64(requestsPID) {
			procName = ev["args"].(map[string]any)["name"].(string)
		}
		if ev["ph"] == "M" && ev["name"] == "thread_name" && ev["pid"] == float64(requestsPID) {
			threadName = ev["args"].(map[string]any)["name"].(string)
		}
		if ev["ph"] == "X" && ev["cat"] == "request" {
			spans[ev["name"].(string)] = true
		}
	}
	if procName != "requests" {
		t.Errorf("request process name = %q", procName)
	}
	if !strings.HasPrefix(threadName, "sla ok ") {
		t.Errorf("request thread name = %q", threadName)
	}
	if !spans["POST /v1/sla"] || !spans["sla_search"] {
		t.Errorf("request spans = %v", spans)
	}
}

// TestSpansAfterTakeNoOp covers work that outlives its request: once
// TakeSpans hands the spans to the flight recorder, the request's open
// handles and new StartSpan calls no-op from any goroutine, and the
// handed-over slice is never written again. Run under -race, the
// concurrent reader below fails on any such write.
func TestSpansAfterTakeNoOp(t *testing.T) {
	tr := NewTrace(DeriveTraceID("late"), SpanID{}, func() float64 { return 1 })
	root := tr.StartSpan("request", SpanID{})
	plan := tr.StartSpan("plan", root.ID())
	plan.SetAttr("strategy", "GAIN")
	root.End()
	taken := tr.TakeSpans()
	want := append([]Span(nil), taken...)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan.SetAttr("late", "yes")
			plan.End()
			h := tr.StartSpan("late", plan.ID())
			h.SetAttr("k", "v")
			h.End()
			if !h.ID().IsZero() {
				t.Error("StartSpan after TakeSpans returned a live handle")
			}
		}()
	}
	var open int
	for _, sp := range taken {
		if sp.End == 0 {
			open++
		}
	}
	wg.Wait()
	if !reflect.DeepEqual(taken, want) {
		t.Errorf("handed-over spans changed:\n got %+v\nwant %+v", taken, want)
	}
	if tr.Len() != 0 || tr.Spans() != nil || tr.TakeSpans() != nil {
		t.Error("the trace recorded spans after TakeSpans")
	}
	if open != 1 {
		t.Errorf("%d open spans handed over, want the plan span only", open)
	}
}
