package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// onlineBody is a representative autoscaling question: a stream of order
// instances under per-second billing with a deadline SLA.
const onlineBody = `{"template_name":"order","interarrival_s":300,"instances":40,` +
	`"scaler":"deadline","deadline_s":6000,"market":"ondemand-sec","seed":7}`

func TestOnlineRunsAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20})

	resp1, b1 := postJSON(t, ts.URL+"/v1/online", onlineBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	var out OnlineResponse
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if out.Instances != 40 || out.Scaler != "deadline" || out.Dispatch != "fifo" {
		t.Fatalf("echoed parameters wrong: %+v", out)
	}
	if out.Response.P50S <= 0 || out.Response.MaxS < out.Response.P50S {
		t.Fatalf("response distribution: %+v", out.Response)
	}
	if out.PeakVMs <= 0 || out.VMsRented < out.PeakVMs || out.TotalCostUSD <= 0 {
		t.Fatalf("pool outcome: %+v", out)
	}
	if out.SLAMet < 0 || out.SLAMet > out.Instances || out.SLAFraction == 0 {
		t.Fatalf("SLA outcome: %+v", out)
	}
	if out.ColdStartS <= 0 {
		t.Fatalf("ondemand-sec preset has cold starts, got %v", out.ColdStartS)
	}

	// Bit-identical on repeat — and served from the cache.
	resp2, b2 := postJSON(t, ts.URL+"/v1/online", onlineBody)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached response differs")
	}
	// Both requests count under their own endpoint label, and the miss
	// observed its latency under it.
	if got := s.met.requests[endpointOf("/v1/online")].Load(); got != 2 {
		t.Errorf("wfservd_requests_total{endpoint=\"online\"} = %v, want 2", got)
	}
	if got := s.met.requests[endpointOf("/")].Load(); got != 0 {
		t.Errorf("wfservd_requests_total{endpoint=\"other\"} = %v, want 0", got)
	}
	var expo strings.Builder
	if err := s.writePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if want := `wfservd_plan_duration_seconds_count{endpoint="online"} 1`; !strings.Contains(expo.String(), want) {
		t.Errorf("exposition lacks %s", want)
	}
	for _, rec := range s.flight.Records() {
		if rec.Route != "online" {
			t.Errorf("flight record of a /v1/online request has route %q", rec.Route)
		}
	}
	if n := len(s.flight.Records()); n != 2 {
		t.Errorf("%d flight records, want 2", n)
	}

	// Bit-identical across a fresh server too.
	_, ts2 := newTestServer(t, Config{Workers: 4, QueueDepth: 8, CacheBytes: 4 << 20})
	resp3, b3 := postJSON(t, ts2.URL+"/v1/online", onlineBody)
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

func TestOnlineMixAndInlineTemplateCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20})
	tight := `{"mix":[{"template_name":"order","weight":3},` +
		`{"template":{"name":"tiny","root":{"task":{"name":"a","work":100}}}}],` +
		`"interarrival_s":200,"instances":20,"seed":4}`
	// Same mix, different whitespace and field order in the inline entry.
	loose := `{"mix":[{"weight":3,"template_name":"order"},` +
		`{"template":{"root":{"task":{"work":100,"name":"a"}},"name":"tiny"}}],` +
		`"interarrival_s":200,"instances":20,"seed":4}`
	resp1, b1 := postJSON(t, ts.URL+"/v1/online", tight)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp1.StatusCode, b1)
	}
	resp2, b2 := postJSON(t, ts.URL+"/v1/online", loose)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("canonicalized mix missed the cache: %q, body %s", got, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("canonicalized responses differ")
	}
}

func TestOnlineSpotFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20})
	body := `{"template_name":"order","interarrival_s":300,"instances":30,` +
		`"market":"spot","preempt_rate":2,"fault_seed":11,"seed":7}`
	resp, b := postJSON(t, ts.URL+"/v1/online", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out OnlineResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Instances != 30 {
		t.Fatalf("completed %d of 30", out.Instances)
	}
	if out.Preemptions == 0 {
		t.Errorf("no preemptions under a storm: %+v", out)
	}
}

func TestOnlineValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"no template", `{"interarrival_s":100}`, http.StatusUnprocessableEntity},
		{"both sources", `{"template_name":"order","template":{"name":"x"},"interarrival_s":100}`,
			http.StatusUnprocessableEntity},
		{"template and mix", `{"template_name":"order","mix":[{"template_name":"order"}],"interarrival_s":100}`,
			http.StatusUnprocessableEntity},
		{"unknown template", `{"template_name":"nope","interarrival_s":100}`,
			http.StatusUnprocessableEntity},
		{"zero interarrival", `{"template_name":"order"}`, http.StatusUnprocessableEntity},
		{"too many instances", `{"template_name":"order","interarrival_s":100,"instances":100000}`,
			http.StatusUnprocessableEntity},
		{"oversized pool", `{"template_name":"order","interarrival_s":100,"max_vms":100000}`,
			http.StatusUnprocessableEntity},
		{"inverted pool", `{"template_name":"order","interarrival_s":100,"min_vms":8,"max_vms":4}`,
			http.StatusUnprocessableEntity},
		{"unknown scaler", `{"template_name":"order","interarrival_s":100,"scaler":"nope"}`,
			http.StatusUnprocessableEntity},
		{"unknown dispatch", `{"template_name":"order","interarrival_s":100,"dispatch":"nope"}`,
			http.StatusUnprocessableEntity},
		{"unknown market", `{"template_name":"order","interarrival_s":100,"market":"bazaar"}`,
			http.StatusUnprocessableEntity},
		{"unknown region", `{"template_name":"order","interarrival_s":100,"region":"mars"}`,
			http.StatusUnprocessableEntity},
		{"unknown instance", `{"template_name":"order","interarrival_s":100,"instance":"huge"}`,
			http.StatusUnprocessableEntity},
		{"negative deadline", `{"template_name":"order","interarrival_s":100,"deadline_s":-5}`,
			http.StatusUnprocessableEntity},
		{"negative fault rate", `{"template_name":"order","interarrival_s":100,"fault_rate":-1}`,
			http.StatusUnprocessableEntity},
		{"unknown field", `{"template_name":"order","interarrival_s":100,"bogus":1}`,
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/online", tc.body)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d (want %d), body %s", tc.name, resp.StatusCode, tc.wantCode, b)
		}
	}
	// Method check.
	resp, err := http.Get(ts.URL + "/v1/online")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}
}

func TestCatalogListsScalers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CatalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Join(out.Scalers, ",") != "deadline,predictive,reactive" {
		t.Errorf("catalog scalers: %v", out.Scalers)
	}
	if strings.Join(out.Dispatches, ",") != "fifo,sjf" {
		t.Errorf("catalog dispatches: %v", out.Dispatches)
	}
}
