package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dag/dagtest"
	"repro/internal/plan"
	"repro/internal/provision"
	"repro/internal/sched"
	"repro/internal/workflows"
)

func fig1Schedule(t *testing.T, kind provision.Kind) *plan.Schedule {
	t.Helper()
	w := workflows.Fig1SubWorkflow()
	var alg sched.Algorithm
	switch kind {
	case provision.AllParExceed, provision.AllParNotExceed:
		alg = sched.NewAllPar(kind, cloud.Small)
	default:
		alg = sched.NewHEFT(kind, cloud.Small)
	}
	s, err := alg.Schedule(w.Clone(), sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGanttShowsVMsAndIdle(t *testing.T) {
	s := fig1Schedule(t, provision.OneVMperTask)
	out := Gantt(s, 60)
	// One row per VM (7 tasks, 7 VMs), idle marks, BTU ticks.
	if got := strings.Count(out, "vm"); got != 7 {
		t.Errorf("VM rows = %d, want 7", got)
	}
	if !strings.Contains(out, "i") {
		t.Error("no idle marks in a OneVMperTask Gantt")
	}
	if !strings.Contains(out, "makespan") {
		t.Error("missing header")
	}
}

func TestGanttFig1PoliciesDiffer(t *testing.T) {
	// The point of Fig. 1: the five provisioning policies yield visibly
	// different VM counts on the same sub-workflow.
	counts := map[provision.Kind]int{}
	for _, kind := range provision.Kinds() {
		s := fig1Schedule(t, kind)
		counts[kind] = s.VMCount()
	}
	if counts[provision.OneVMperTask] != 7 {
		t.Errorf("OneVMperTask VMs = %d, want 7", counts[provision.OneVMperTask])
	}
	if counts[provision.StartParExceed] != 1 {
		t.Errorf("StartParExceed VMs = %d, want 1 (single entry)", counts[provision.StartParExceed])
	}
	if counts[provision.AllParExceed] >= counts[provision.OneVMperTask] {
		t.Errorf("AllParExceed VMs = %d, want < OneVMperTask's %d",
			counts[provision.AllParExceed], counts[provision.OneVMperTask])
	}
}

func TestGanttEmptySchedule(t *testing.T) {
	s := &plan.Schedule{Workflow: workflows.Fig1SubWorkflow()}
	if out := Gantt(s, 40); !strings.Contains(out, "empty") {
		t.Errorf("empty schedule rendering = %q", out)
	}
}

func TestGanttHeldIdleLeaseRenders(t *testing.T) {
	// Regression: a lease that billed without running anything (zero
	// slots, nonzero PaidSeconds via Held) must render its own row, not
	// collapse to "(empty schedule)".
	s := &plan.Schedule{
		Workflow: dagtest.Chain(1, 100),
		VMs:      []*plan.VM{{ID: 0, Type: cloud.Small, Held: 10}},
	}
	if got := s.VMs[0].Bill().Paid; got != cloud.BTU {
		t.Fatalf("held lease PaidSeconds = %g, want one BTU (%g)", got, cloud.BTU)
	}
	out := Gantt(s, 40)
	if strings.Contains(out, "empty") {
		t.Fatalf("held lease rendered as empty schedule:\n%s", out)
	}
	if !strings.Contains(out, "vm0") {
		t.Errorf("held lease row missing:\n%s", out)
	}
	if !strings.Contains(out, "i") {
		t.Errorf("held lease has no idle fill:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	s := fig1Schedule(t, provision.OneVMperTask)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header plus one row per task.
	if len(records) != 1+s.Workflow.Len() {
		t.Errorf("rows = %d, want %d", len(records), 1+s.Workflow.Len())
	}
	if records[0][0] != "vm" || len(records[0]) != 7 {
		t.Errorf("header = %v", records[0])
	}
	if records[1][4] == "" {
		t.Error("task names missing")
	}
}
