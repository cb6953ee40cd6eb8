package expconf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/online"
)

func TestLoadOnlineBlock(t *testing.T) {
	doc := `{"seed": 9, "region": "eu-dublin",
	  "fault": {"crash_rate": 0.1},
	  "market": {"preset": "ondemand-sec"},
	  "online": {"template": "order", "interarrival_s": 300, "instances": 30,
	    "instance_type": "medium", "min_vms": 1, "max_vms": 12,
	    "scaler": "deadline", "dispatch": "sjf", "deadline_s": 5000}}`
	cfg, err := Load(strings.NewReader(doc), ".")
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.Online
	if o == nil {
		t.Fatal("online block not resolved")
	}
	if o.MeanInterarrival != 300 || o.Instances != 30 || o.Deadline != 5000 {
		t.Errorf("stream params: %+v", o)
	}
	if o.Type != cloud.Medium || o.Region != cloud.EUDublin {
		t.Errorf("type/region: %v/%v", o.Type, o.Region)
	}
	if o.MinVMs != 1 || o.MaxVMs != 12 {
		t.Errorf("pool bounds: [%d, %d]", o.MinVMs, o.MaxVMs)
	}
	if o.Scaler.Name() != "deadline" || o.Dispatch != online.SJF {
		t.Errorf("policies: %v/%v", o.Scaler, o.Dispatch)
	}
	if o.Seed != 9 {
		t.Errorf("seed %d, want the file seed 9", o.Seed)
	}
	// File-level fault and market models carry over.
	if o.Faults == nil || o.Faults.CrashRate != 0.1 {
		t.Errorf("faults not inherited: %+v", o.Faults)
	}
	if o.Market == nil || o.Market.Cold.Mean != 45 {
		t.Errorf("market not inherited: %+v", o.Market)
	}
	res, err := online.Run(*o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTimes.N != 30 {
		t.Errorf("completed %d of 30", res.ResponseTimes.N)
	}
}

func TestLoadOnlineMixAndDefaults(t *testing.T) {
	dir := t.TempDir()
	tpl := `{"name":"tiny","root":{"task":{"name":"a","work":100}}}`
	if err := os.WriteFile(filepath.Join(dir, "tpl.json"), []byte(tpl), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{"seed": 4,
	  "online": {"interarrival_s": 200, "instances": 10, "mix": [
	    {"template": "order", "weight": 3},
	    {"template_file": "tpl.json"}]}}`
	cfg, err := Load(strings.NewReader(doc), dir)
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.Online
	if o == nil {
		t.Fatal("online block not resolved")
	}
	if len(o.Mix) != 2 || o.Mix[0].Weight != 3 || o.Mix[1].Weight != 1 {
		t.Errorf("mix: %+v", o.Mix)
	}
	if o.Mix[1].Template.Name != "tiny" {
		t.Errorf("mix file template: %q", o.Mix[1].Template.Name)
	}
	if o.MaxVMs != 32 || o.Type != cloud.Small || o.Seed != 4 {
		t.Errorf("defaults: %+v", o)
	}
	// The scaler default is spelled out: online.Summary names it.
	if o.Scaler == nil || o.Scaler.Name() != "reactive" || o.Dispatch != online.FIFO {
		t.Errorf("policy defaults: %v/%v", o.Scaler, o.Dispatch)
	}
	if _, err := online.Run(*o); err != nil {
		t.Error(err)
	}
}

func TestLoadOnlineErrors(t *testing.T) {
	for _, doc := range []string{
		`{"online": {"interarrival_s": 100, "instances": 10}}`,
		`{"online": {"template": "order", "template_file": "x.json", "interarrival_s": 100, "instances": 10}}`,
		`{"online": {"template": "nope", "interarrival_s": 100, "instances": 10}}`,
		`{"online": {"template": "order", "mix": [{"template": "order"}], "interarrival_s": 100, "instances": 10}}`,
		`{"online": {"mix": [{"template": "order", "template_file": "x.json"}], "interarrival_s": 100, "instances": 10}}`,
		`{"online": {"mix": [{"template_file": "no-such.json"}], "interarrival_s": 100, "instances": 10}}`,
		`{"online": {"template": "order", "interarrival_s": 100, "instances": 10, "instance_type": "bogus"}}`,
		`{"online": {"template": "order", "interarrival_s": 100, "instances": 10, "scaler": "bogus"}}`,
		`{"online": {"template": "order", "interarrival_s": 100, "instances": 10, "dispatch": "bogus"}}`,
	} {
		if _, err := Load(strings.NewReader(doc), "."); err == nil {
			t.Errorf("document accepted: %s", doc)
		}
	}
}
