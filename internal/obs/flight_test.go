package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func flightRec(i int) FlightRecord {
	return FlightRecord{
		Trace:    DeriveTraceID(fmt.Sprintf("req-%06d", i)),
		Route:    "sla",
		Status:   200,
		Start:    float64(i),
		Duration: 0.5,
		Outcome:  "ok",
	}
}

func TestFlightRingSemantics(t *testing.T) {
	f := NewFlight(3)
	if f.Len() != 0 {
		t.Fatalf("fresh ring: len=%d", f.Len())
	}
	for i := 0; i < 5; i++ {
		f.Record(flightRec(i))
	}
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3", f.Len())
	}
	recs := f.Records()
	for i, r := range recs {
		if want := float64(i + 2); r.Start != want {
			t.Errorf("record %d start = %v, want %v (oldest-first after wrap)", i, r.Start, want)
		}
	}
}

func TestFlightCapacityFloor(t *testing.T) {
	f := NewFlight(0)
	f.Record(flightRec(1))
	f.Record(flightRec(2))
	if f.Len() != 1 || f.Records()[0].Start != 2 {
		t.Errorf("capacity-0 ring should hold exactly the newest record: len=%d", f.Len())
	}
}

func TestFlightRecordAllocBudget(t *testing.T) {
	f := NewFlight(64)
	r := flightRec(0)
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(r)
	})
	if allocs != 0 {
		t.Fatalf("Flight.Record: %.1f allocs/run, want 0 (fixed-cost contract)", allocs)
	}
}

func TestFlightNDJSON(t *testing.T) {
	tr := NewTrace(DeriveTraceID("req-000007"), SpanID{}, nil)
	root := tr.StartSpan("POST /v1/sla", SpanID{})
	stage := tr.StartSpan("sla_search", root.ID())
	stage.End()
	root.End()

	f := NewFlight(4)
	f.Record(FlightRecord{
		Trace: tr.ID(), Route: "sla", Status: 200,
		Start: 1.25, Duration: 0.75, Outcome: "ok",
		Spans: tr.TakeSpans(),
	})
	f.Record(FlightRecord{
		Trace: DeriveTraceID("req-000008"), Route: "schedule", Status: 429,
		Start: 2.0, Duration: 0.001, Outcome: "rejected",
	})

	var buf bytes.Buffer
	if err := WriteFlightNDJSON(&buf, f.Records()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var first jsonFlight
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first.Trace != tr.ID().String() || first.Route != "sla" || first.Outcome != "ok" {
		t.Errorf("first record = %+v", first)
	}
	if len(first.Spans) != 2 || first.Spans[0].Name != "POST /v1/sla" || first.Spans[1].Name != "sla_search" {
		t.Errorf("first record spans = %+v", first.Spans)
	}
	if first.Spans[0].Trace != "" {
		t.Error("per-span trace should be omitted; the record line carries it")
	}
	var second jsonFlight
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if second.Status != 429 || second.Outcome != "rejected" || len(second.Spans) != 0 {
		t.Errorf("second record = %+v", second)
	}
}

func TestFlightSpanSets(t *testing.T) {
	recs := []FlightRecord{flightRec(0), flightRec(1)}
	sets := SpanSets(recs)
	if len(sets) != 2 {
		t.Fatalf("sets = %d, want 2", len(sets))
	}
	for i, s := range sets {
		if s.Trace != recs[i].Trace {
			t.Errorf("set %d trace mismatch", i)
		}
		if !strings.HasPrefix(s.Name, "sla ok ") {
			t.Errorf("set %d name = %q", i, s.Name)
		}
	}
}
