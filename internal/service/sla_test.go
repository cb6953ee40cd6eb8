package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// slaBody is the acceptance-criterion request: the seeded ndwf Montage
// template, a 95% deadline, a restricted portfolio to keep the test quick.
const slaBody = `{"template_name":"montage","deadline_s":40000,"confidence":0.95,` +
	`"samples":25,"seed":9,"strategies":["OneVMperTask-s","AllParExceed-m","AllParExceed-l"]}`

func TestSLAFindsCheapestAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})

	resp1, b1 := postJSON(t, ts.URL+"/v1/sla", slaBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	var out SLAResponse
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !out.Met || out.Best == nil {
		t.Fatalf("deadline not met: %+v", out)
	}
	if out.Best.MeetProbability < 0.95 {
		t.Fatalf("best %s has p = %v < 0.95", out.Best.Strategy, out.Best.MeetProbability)
	}
	// The candidate list is cost-sorted, so nothing cheaper qualifies.
	for _, c := range out.Candidates {
		if c.MeanCostUSD >= out.Best.MeanCostUSD {
			break
		}
		if c.MeetProbability >= out.Confidence {
			t.Fatalf("cheaper qualifier %s not selected", c.Strategy)
		}
	}
	if out.Template != "montage6" || out.Samples != 25 || out.Seed != 9 {
		t.Fatalf("echoed parameters wrong: %+v", out)
	}
	for _, c := range out.Candidates {
		if c.BoundMinS <= 0 {
			t.Fatalf("%s: no analytic bound in response", c.Strategy)
		}
		if c.MeetLo > c.MeetProbability || c.MeetHi < c.MeetProbability {
			t.Fatalf("%s: Wilson interval [%v, %v] excludes p %v",
				c.Strategy, c.MeetLo, c.MeetHi, c.MeetProbability)
		}
		if c.Completed != out.Samples {
			t.Fatalf("%s: fault-free run completed %d/%d", c.Strategy, c.Completed, out.Samples)
		}
	}

	// Bit-identical on repeat — and served from the cache.
	resp2, b2 := postJSON(t, ts.URL+"/v1/sla", slaBody)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached response differs")
	}

	// Bit-identical across a fresh server too (no hidden process state).
	_, ts2 := newTestServer(t, Config{Workers: 4, QueueDepth: 8, CacheSize: 64})
	resp3, b3 := postJSON(t, ts2.URL+"/v1/sla", slaBody)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh server status %d", resp3.StatusCode)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("response differs across server instances")
	}

	snap := s.Metrics()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache counters: %+v", snap)
	}
}

func TestSLAPrunesAndReportsMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	// A deadline below the small-instance analytic bound: small-typed
	// strategies are pruned; the survivors sample but cannot meet.
	body := `{"template_name":"order","deadline_s":500,"confidence":0.99,"samples":10,` +
		`"strategies":["OneVMperTask-s","AllParExceed-l"]}`
	resp, b := postJSON(t, ts.URL+"/v1/sla", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out SLAResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Met {
		t.Fatalf("500s deadline reported met: %+v", out)
	}
	if len(out.Pruned) == 0 {
		t.Fatalf("no pruned candidates: %+v", out)
	}
	for _, p := range out.Pruned {
		if p.BoundMinS <= out.DeadlineS {
			t.Fatalf("%s pruned with bound %v <= deadline", p.Strategy, p.BoundMinS)
		}
	}
	if out.Considered != len(out.Candidates)+len(out.Pruned) {
		t.Fatalf("considered %d != %d + %d", out.Considered, len(out.Candidates), len(out.Pruned))
	}
}

func TestSLAInlineTemplateAndCacheCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	tpl := `{"name":"tiny","root":{"seq":[` +
		`{"task":{"name":"a","work":100}},{"task":{"name":"b","work":200}}]}}`
	body := `{"template":` + tpl + `,"deadline_s":5000,"samples":5,"strategies":["OneVMperTask-s"]}`
	resp, b := postJSON(t, ts.URL+"/v1/sla", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out SLAResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Template != "tiny" || !out.Met {
		t.Fatalf("inline template outcome: %+v", out)
	}
	// The same template with different whitespace hits the same cache
	// entry: the key hashes the canonical re-encoding, not the raw bytes.
	spaced := `{"template": ` + tpl + ` ,"deadline_s":5000,"samples":5,"strategies":["OneVMperTask-s"]}`
	resp2, _ := postJSON(t, ts.URL+"/v1/sla", spaced)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("canonicalized template X-Cache = %q, want HIT", got)
	}
}

func TestSLAWithFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	body := `{"template_name":"order","deadline_s":100000,"confidence":0.5,"samples":15,` +
		`"strategies":["OneVMperTask-s"],"task_fail_prob":0.4,"recovery":"fail","fault_seed":3}`
	resp, b := postJSON(t, ts.URL+"/v1/sla", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out SLAResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) != 1 {
		t.Fatalf("candidates: %+v", out)
	}
	c := out.Candidates[0]
	if c.Completed >= out.Samples {
		t.Fatalf("expected aborted replays under fail recovery, completed %d/%d", c.Completed, out.Samples)
	}
	if c.MeetProbability > float64(c.Completed)/float64(out.Samples) {
		t.Fatalf("meet probability %v exceeds completion rate", c.MeetProbability)
	}
}

func TestSLAValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	cases := []struct {
		name string
		body string
	}{
		{"no template", `{"deadline_s":100}`},
		{"both sources", `{"template_name":"order","template":{"name":"x","root":{"task":{"name":"a","work":1}}},"deadline_s":100}`},
		{"unknown template", `{"template_name":"nope","deadline_s":100}`},
		{"zero deadline", `{"template_name":"order"}`},
		{"negative deadline", `{"template_name":"order","deadline_s":-5}`},
		{"confidence too high", `{"template_name":"order","deadline_s":100,"confidence":1}`},
		{"samples over cap", `{"template_name":"order","deadline_s":100,"samples":100000}`},
		{"unknown strategy", `{"template_name":"order","deadline_s":100,"strategies":["nope"]}`},
		{"unknown market", `{"template_name":"order","deadline_s":100,"markets":["nope"]}`},
		{"unknown recovery", `{"template_name":"order","deadline_s":100,"task_fail_prob":0.1,"recovery":"nope"}`},
		{"bad region", `{"template_name":"order","deadline_s":100,"region":"nope"}`},
		{"invalid inline template", `{"template":{"name":"x","root":{"task":{"name":"a","work":-1}}},"deadline_s":100}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sla", c.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (body %s)", c.name, resp.StatusCode, body)
		}
	}
}

func TestSLAMetricsProgress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	body := `{"template_name":"order","deadline_s":500,"samples":5,` +
		`"strategies":["OneVMperTask-s","AllParExceed-l"]}`
	postJSON(t, ts.URL+"/v1/sla", body)
	if got := s.met.slaMissed.Load(); got != 1 {
		t.Fatalf("missed searches = %v, want 1", got)
	}
	sampled, pruned := s.met.slaSampled.Load(), s.met.slaPruned.Load()
	if sampled+pruned != 2 || pruned < 1 {
		t.Fatalf("candidate counters: sampled %v, pruned %v", sampled, pruned)
	}
	if got := s.met.slaInstances.Load(); got != sampled*5 {
		t.Fatalf("instance counter %v, want %v", got, sampled*5)
	}
}
