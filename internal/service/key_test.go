package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// post sends one request and returns its status, cache header and body.
func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, b := postJSON(t, url, body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// TestCacheKeepsNames is the regression test for name aliasing: requests
// whose workflows share a structure but not a name are distinct cache
// entries, because the response echoes the names. Each request misses,
// reports its own names, and answers the bytes a fresh server does.
func TestCacheKeepsNames(t *testing.T) {
	inline := func(names string) string {
		return `{"workflow":{"name":"diamond","tasks":[` + names + `],` +
			`"edges":[{"from":0,"to":1},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3}]},` +
			`"strategy":"GAIN","scenario":"As is"}`
	}
	for _, c := range []struct {
		first, second string
		workflow      string // the second's workflow label
		task0         string // the second's name for task 0
	}{
		{`{"workflow_name":"Montage","strategy":"GAIN","seed":3}`,
			`{"workflow_name":"montage6","strategy":"GAIN","seed":3}`, "montage6", ""},
		{`{"workflow_name":"CSTEM","strategy":"GAIN","seed":3}`,
			`{"workflow_name":"cstem","strategy":"GAIN","seed":3}`, "cstem", ""},
		{`{"workflow_name":"Sequential","strategy":"GAIN","seed":3}`,
			`{"workflow_name":"sequential10","strategy":"GAIN","seed":3}`, "sequential10", ""},
		{inline(`{"name":"a","work":600},{"name":"b","work":1200},{"name":"c","work":900},{"name":"d","work":300}`),
			inline(`{"name":"w","work":600},{"name":"x","work":1200},{"name":"y","work":900},{"name":"z","work":300}`),
			"diamond", "w"},
	} {
		_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
		if code, cache, b := post(t, ts.URL+"/v1/schedule", c.first); code != http.StatusOK || cache != "MISS" {
			t.Fatalf("%s: status %d, X-Cache %q, body %s", c.first, code, cache, b)
		}
		code, cache, b := post(t, ts.URL+"/v1/schedule", c.second)
		if code != http.StatusOK || cache != "MISS" {
			t.Fatalf("%s after %s: status %d, X-Cache %q; want a miss", c.second, c.first, code, cache)
		}
		var out ScheduleResponse
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.Workflow != c.workflow {
			t.Errorf("%s: workflow %q, want %q", c.second, out.Workflow, c.workflow)
		}
		for _, vm := range out.VMs {
			for _, slot := range vm.Slots {
				if c.task0 != "" && slot.Task == 0 && slot.Name != c.task0 {
					t.Errorf("%s: task 0 named %q, want %q", c.second, slot.Name, c.task0)
				}
			}
		}
		_, fresh := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
		if _, _, want := post(t, fresh.URL+"/v1/schedule", c.second); !bytes.Equal(b, want) {
			t.Errorf("%s: body differs from a fresh server's", c.second)
		}
	}
}

// TestSLAPortfolioDedupe pins the portfolio axes to their distinct names:
// repeats that fold to one name sample one candidate and share the cache
// entry of the plain spelling.
func TestSLAPortfolioDedupe(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	const repeated = `{"template_name":"order","deadline_s":4000,"samples":10,` +
		`"strategies":["GAIN","gain","Gain"],"markets":["spot","Spot"]}`
	code, cache, b := post(t, ts.URL+"/v1/sla", repeated)
	if code != http.StatusOK || cache != "MISS" {
		t.Fatalf("status %d, X-Cache %q, body %s", code, cache, b)
	}
	var out SLAResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Considered != 1 {
		t.Fatalf("considered %d candidates, want 1", out.Considered)
	}
	code, cache, plain := post(t, ts.URL+"/v1/sla",
		`{"template_name":"order","deadline_s":4000,"samples":10,"strategies":["GAIN"],"markets":["spot"]}`)
	if code != http.StatusOK || cache != "HIT" || !bytes.Equal(b, plain) {
		t.Fatalf("plain spelling: status %d, X-Cache %q, same bytes %v", code, cache, bytes.Equal(b, plain))
	}
}

// TestCanonicalEqualRequestsShareBytes replays request pairs that differ
// only in what the spec key folds — letter case in names, defaults spelled
// out, a fault block that injects nothing, inline document formatting —
// on one server, where the second must hit the first's entry, and each on
// its own fresh server, where both must answer the same bytes.
func TestCanonicalEqualRequestsShareBytes(t *testing.T) {
	for _, p := range []struct{ path, a, b string }{
		{"/v1/schedule", `{"workflow_name":"montage24","strategy":"GAIN","seed":7}`,
			`{"workflow_name":"montage24","strategy":"gain","scenario":"PARETO","region":"US-East-Virginia","market":"none","seed":7}`},
		{"/v1/schedule", `{"workflow_name":"CSTEM","strategy":"SpotFallback","market":"spot","simulate":true,"seed":7}`,
			`{"workflow_name":"CSTEM","strategy":"spotfallback","market":"Spot","market_seed":1,"simulate":true,` +
				`"recovery":"fail","max_retries":2,"fault_seed":5,"seed":7}`},
		{"/v1/schedule",
			`{"workflow":{"name":"d","tasks":[{"name":"a","work":600},{"name":"b","work":900}],"edges":[{"from":0,"to":1}]},"strategy":"GAIN"}`,
			`{"strategy":"GAIN","workflow":{ "edges":[{"to":1,"from":0,"data":0}], "tasks":[{"work":6e2,"name":"a"},{"work":900,"name":"b"}], "name":"d"}}`},
		{"/v1/compare", `{"workflow_name":"CSTEM","seed":2}`,
			`{"workflow_name":"CSTEM","scenario":"pareto","region":"us-east-virginia","seed":2}`},
		{"/v1/sla", `{"template_name":"order","deadline_s":4000,"strategies":["GAIN"],"samples":200}`,
			`{"template_name":"order","deadline_s":4000,"strategies":["gain","GAIN"],"confidence":0.95,` +
				`"markets":["None"],"recovery":"retry","fault_seed":3}`},
		{"/v1/online", `{"template_name":"order","interarrival_s":300,"instances":20,"seed":4}`,
			`{"mix":[{"template_name":"order","weight":1}],"interarrival_s":300,"instances":20,"seed":4,` +
				`"max_vms":32,"instance":"small","scaler":"Reactive","dispatch":"FIFO","market":"NONE","fault_seed":8}`},
	} {
		_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
		codeA, _, bodyA := post(t, ts.URL+p.path, p.a)
		codeB, cache, bodyB := post(t, ts.URL+p.path, p.b)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: status %d/%d: %s / %s", p.path, codeA, codeB, bodyA, bodyB)
		}
		if cache != "HIT" || !bytes.Equal(bodyA, bodyB) {
			t.Errorf("%s %s: X-Cache %q after its canonical twin, same bytes %v", p.path, p.b, cache, bytes.Equal(bodyA, bodyB))
		}
		_, fresh := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
		if code, _, b := post(t, fresh.URL+p.path, p.b); code != http.StatusOK || !bytes.Equal(b, bodyA) {
			t.Errorf("%s %s: a fresh server answers different bytes", p.path, p.b)
		}
	}
}
