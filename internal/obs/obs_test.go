package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	// Every kind has a distinct snake_case wire name; unknown kinds are
	// still printable.
	seen := map[string]Kind{}
	for k := KindVMLeaseStart; k <= KindVMFallback; k++ {
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
