package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	// Every kind has a distinct snake_case wire name; unknown kinds are
	// still printable.
	seen := map[string]Kind{}
	for k := KindVMLeaseStart; k <= KindCellStart; k++ {
		name := k.String()
		if name == "" || strings.Contains(name, "Kind(") {
			t.Errorf("kind %d has no wire name: %q", k, name)
		}
		if name != strings.ToLower(name) {
			t.Errorf("kind %d name %q is not snake_case", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := Kind(0).String(); got != "Kind(0)" {
		t.Errorf("zero kind = %q", got)
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestCollectorAppends(t *testing.T) {
	var c Collector
	c.Record(Event{Kind: KindTaskStart, Task: 3})
	c.Record(Event{Kind: KindTaskFinish, Task: 3})
	if len(c.Events) != 2 || c.Events[0].Kind != KindTaskStart || c.Events[1].Kind != KindTaskFinish {
		t.Errorf("collector events = %+v", c.Events)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || r.overwritten != 0 {
		t.Fatal("fresh ring not empty")
	}
	r.Record(Event{Task: 0})
	r.Record(Event{Task: 1})
	if got := r.Events(); len(got) != 2 || got[0].Task != 0 || got[1].Task != 1 {
		t.Errorf("partial ring = %+v", got)
	}
	for i := int32(2); i < 7; i++ {
		r.Record(Event{Task: i})
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want capacity 3", r.Len())
	}
	if r.overwritten != 4 {
		t.Errorf("overwritten = %d, want 4", r.overwritten)
	}
	got := r.Events()
	if len(got) != 3 || got[0].Task != 4 || got[1].Task != 5 || got[2].Task != 6 {
		t.Errorf("full ring = %+v, want tasks 4,5,6 oldest first", got)
	}
}

func TestNewRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(Event{Task: 1})
	r.Record(Event{Task: 2})
	if got := r.Events(); len(got) != 1 || got[0].Task != 2 {
		t.Errorf("capacity-clamped ring = %+v", got)
	}
}

func TestDefaultMatchesEnv(t *testing.T) {
	// Default is latched by a sync.Once, so this test asserts consistency
	// with however the process was started — exercised both ways by the
	// plain and OBSDEBUG=1 CI runs.
	enabled := os.Getenv("OBSDEBUG") != ""
	rec := Default()
	if (rec != nil) != enabled {
		t.Errorf("Default() = %v with OBSDEBUG=%q", rec, os.Getenv("OBSDEBUG"))
	}
	if again := Default(); again != rec {
		t.Error("Default() is not stable across calls")
	}
	if rec != nil {
		rec.Record(Event{Kind: KindTaskStart}) // shared ring must accept events
	}
}

func TestWriteNDJSONDeterministicAndOmitsEmpty(t *testing.T) {
	events := []Event{
		{Kind: KindVMLeaseStart, T: 0, VM: 0, Task: -1, Value: 30, Label: "small"},
		{Kind: KindTaskStart, T: 30, VM: 0, Task: 2, Attempt: 1, Value: 100, Label: "t2"},
		{Kind: KindTaskFinish, T: 130, VM: 0, Task: 2, Attempt: 1},
	}
	var a, b bytes.Buffer
	if err := WriteNDJSON(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same stream differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "vm_lease_start" || first["label"] != "small" {
		t.Errorf("first line = %v", first)
	}
	if _, ok := first["attempt"]; ok {
		t.Error("zero attempt not omitted")
	}
	// Lines must be compact single objects (no indentation).
	if strings.Contains(lines[1], "  ") {
		t.Errorf("line not compact: %q", lines[1])
	}
}
