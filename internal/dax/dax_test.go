package dax

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag/dagtest"
	"repro/internal/workflows"
)

// sampleDAX is a hand-written document in the style of the Pegasus Montage
// releases: two projections feeding a diff, plus an explicit control link.
const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag name="montage-mini">
  <job id="ID00000" name="mProjectPP" runtime="382.1">
    <uses file="img0.fits" link="input" size="1048576"/>
    <uses file="proj0.fits" link="output" size="4194304"/>
  </job>
  <job id="ID00001" name="mProjectPP" runtime="401.7">
    <uses file="img1.fits" link="input" size="1048576"/>
    <uses file="proj1.fits" link="output" size="4194304"/>
  </job>
  <job id="ID00002" name="mDiffFit" runtime="12.3">
    <uses file="proj0.fits" link="input" size="4194304"/>
    <uses file="proj1.fits" link="input" size="4194304"/>
    <uses file="diff.fits" link="output" size="2097152"/>
  </job>
  <job id="ID00003" name="mConcatFit" runtime="55.0">
    <uses file="diff.fits" link="input" size="2097152"/>
  </job>
  <child ref="ID00003">
    <parent ref="ID00002"/>
  </child>
</adag>`

func TestDecodeSample(t *testing.T) {
	w, err := Decode(strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "montage-mini" {
		t.Errorf("name = %q", w.Name)
	}
	if w.Len() != 4 {
		t.Fatalf("tasks = %d, want 4", w.Len())
	}
	// Data-flow edges: proj0 and proj1 into the diff, diff into concat.
	if d, ok := w.Data(0, 2); !ok || d != 4194304 {
		t.Errorf("edge 0->2 = %v, %v", d, ok)
	}
	if d, ok := w.Data(1, 2); !ok || d != 4194304 {
		t.Errorf("edge 1->2 = %v, %v", d, ok)
	}
	if d, ok := w.Data(2, 3); !ok || d != 2097152 {
		t.Errorf("edge 2->3 = %v, %v", d, ok)
	}
	if got := w.Task(0).Work; got != 382.1 {
		t.Errorf("runtime = %v", got)
	}
	// The explicit child/parent link duplicates the derived data edge and
	// must not double it.
	if len(w.Edges()) != 3 {
		t.Errorf("edges = %d, want 3", len(w.Edges()))
	}
}

func TestDecodeControlOnlyLinks(t *testing.T) {
	doc := `<adag name="ctl">
	  <job id="a" name="a" runtime="1"/>
	  <job id="b" name="b" runtime="2"/>
	  <child ref="b"><parent ref="a"/></child>
	</adag>`
	w, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := w.Data(0, 1); !ok || d != 0 {
		t.Errorf("control edge = %v, %v, want 0-byte edge", d, ok)
	}

	// A control link that shadows a uses edge adds 0 bytes to it: one
	// edge, with the file's data.
	doc = `<adag name="shadow">
	  <job id="a" name="a" runtime="1"><uses file="f" link="output" size="300"/></job>
	  <job id="b" name="b" runtime="2"><uses file="f" link="input" size="300"/></job>
	  <child ref="b"><parent ref="a"/><parent ref="a"/></child>
	</adag>`
	if w, err = Decode(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if d, ok := w.Data(0, 1); !ok || d != 300 || len(w.Edges()) != 1 || len(w.Pred(1)) != 1 {
		t.Errorf("shadowed edge = %v, %v with %d edges, %d preds; want one 300-byte edge",
			d, ok, len(w.Edges()), len(w.Pred(1)))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            `<adag name="x"></adag>`,
		"negative runtime": `<adag><job id="a" runtime="-1"/></adag>`,
		"duplicate id":     `<adag><job id="a" runtime="1"/><job id="a" runtime="1"/></adag>`,
		"unknown child":    `<adag><job id="a" runtime="1"/><child ref="zz"><parent ref="a"/></child></adag>`,
		"unknown parent":   `<adag><job id="a" runtime="1"/><child ref="a"><parent ref="zz"/></child></adag>`,
		"self dependency":  `<adag><job id="a" runtime="1"/><child ref="a"><parent ref="a"/></child></adag>`,
		"cycle": `<adag><job id="a" runtime="1"/><job id="b" runtime="1"/>
		  <child ref="a"><parent ref="b"/></child>
		  <child ref="b"><parent ref="a"/></child></adag>`,
		"not xml": `hello`,
	}
	for name, doc := range cases {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestEncodeDecodeRoundTripPaperWorkflows(t *testing.T) {
	for name, wf := range workflows.Paper() {
		var buf bytes.Buffer
		if err := Encode(&buf, wf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Len() != wf.Len() {
			t.Errorf("%s: tasks %d != %d", name, got.Len(), wf.Len())
		}
		if len(got.Edges()) != len(wf.Edges()) {
			t.Errorf("%s: edges %d != %d", name, len(got.Edges()), len(wf.Edges()))
		}
		for _, e := range wf.Edges() {
			if d, ok := got.Data(e.From, e.To); !ok || d != e.Data {
				t.Errorf("%s: edge %d->%d = %v/%v, want %v", name, e.From, e.To, d, ok, e.Data)
			}
		}
		for _, task := range wf.Tasks() {
			if g := got.Task(task.ID); g.Work != task.Work {
				t.Errorf("%s: task %d work %v != %v", name, task.ID, g.Work, task.Work)
			}
		}
	}
}

// Property: random DAGs round-trip through DAX losslessly (IDs are
// position-stable because Encode emits tasks in ID order).
func TestQuickDAXRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		wf := dagtest.Random(seed, dagtest.DefaultConfig())
		var buf bytes.Buffer
		if err := Encode(&buf, wf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if got.Len() != wf.Len() || len(got.Edges()) != len(wf.Edges()) {
			return false
		}
		for _, e := range wf.Edges() {
			if d, ok := got.Data(e.From, e.To); !ok || d != e.Data {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
