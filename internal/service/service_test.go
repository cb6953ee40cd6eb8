package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/spec"
)

// newTestServer spins up a service plus an HTTP front end for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestScheduleAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	body := `{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":7}`

	resp1, b1 := postJSON(t, ts.URL+"/v1/schedule", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if out.Makespan <= 0 || out.Cost <= 0 || out.VMCount <= 0 {
		t.Fatalf("degenerate schedule: %+v", out)
	}
	if out.Strategy != "AllParExceed-m" || out.Workflow != "montage24" {
		t.Fatalf("labels wrong: %+v", out)
	}
	if out.BaselineMakespan <= 0 || out.Category == "" || len(out.VMs) == 0 {
		t.Fatalf("missing baseline/category/VMs: %+v", out)
	}

	resp2, b2 := postJSON(t, ts.URL+"/v1/schedule", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached response bytes differ from the original")
	}

	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters: hits %d misses %d, want 1/1", m.CacheHits, m.CacheMisses)
	}

	// A different seed is a different problem: no false sharing.
	resp3, _ := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":8}`)
	if got := resp3.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("different seed X-Cache = %q, want MISS", got)
	}
}

func TestScheduleComposedStrategy(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, b := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","algorithm":"HEFT","policy":"StartParExceed","instance":"medium","scenario":"Best case"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "StartParExceed-m" {
		t.Fatalf("composed strategy resolved to %q", out.Strategy)
	}

	// The composed form and the catalog label are the same problem, so
	// the second spelling must hit the first's cache entry.
	resp2, _ := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","strategy":"StartParExceed-m","scenario":"Best case"}`)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("catalog spelling X-Cache = %q, want HIT", got)
	}
}

func TestScheduleInlineWorkflowWithSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	body := `{
		"workflow": {
			"name": "diamond",
			"tasks": [{"name":"a","work":600},{"name":"b","work":1200},{"name":"c","work":900},{"name":"d","work":300}],
			"edges": [{"from":0,"to":1,"data":1048576},{"from":0,"to":2},{"from":1,"to":3},{"from":2,"to":3}]
		},
		"scenario": "As is",
		"strategy": "CPA-Eager",
		"simulate": true,
		"boot_s": 60
	}`
	resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Workflow != "diamond" || out.Tasks != 4 || out.Scenario != "As is" {
		t.Fatalf("labels wrong: %+v", out)
	}
	if out.Simulation == nil {
		t.Fatal("simulate=true returned no simulation block")
	}
	if out.Simulation.Makespan < out.Makespan {
		t.Fatalf("simulated makespan %v with 60s boot below planned %v",
			out.Simulation.Makespan, out.Makespan)
	}
}

func TestScheduleDebugRunsOracle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	resp, b := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"montage24","strategy":"GAIN","scenario":"Pareto","seed":3,"debug":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Oracle == nil {
		t.Fatal("debug request returned no oracle verdict")
	}
	if !out.Oracle.Passed || out.Oracle.Divergence != "" {
		t.Fatalf("oracle diverged: %+v", out.Oracle)
	}

	// Debug on/off are distinct cache entries: the plain request must not
	// inherit the debug body.
	resp2, b2 := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"montage24","strategy":"GAIN","scenario":"Pareto","seed":3}`)
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("plain request after debug X-Cache = %q, want MISS", got)
	}
	var out2 ScheduleResponse
	if err := json.Unmarshal(b2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Oracle != nil {
		t.Fatal("plain request carries an oracle verdict")
	}
}

func TestScheduleValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		name, body string
		code       int
	}{
		{"bad json", `{"workflow_name":`, http.StatusBadRequest},
		{"unknown field", `{"bogus_field":1}`, http.StatusBadRequest},
		{"expconf-only fault field", `{"workflow_name":"Montage","strategy":"GAIN","simulate":true,"reboot_s":30}`, http.StatusBadRequest},
		{"unknown strategy", `{"workflow_name":"Montage","strategy":"NoSuchStrategy"}`, http.StatusUnprocessableEntity},
		{"unknown workflow", `{"workflow_name":"nosuch","strategy":"GAIN"}`, http.StatusUnprocessableEntity},
		{"generator size its builder rejects", `{"workflow_name":"montage1","strategy":"GAIN"}`, http.StatusUnprocessableEntity},
		{"missing workflow", `{"strategy":"GAIN"}`, http.StatusUnprocessableEntity},
		{"missing strategy", `{"workflow_name":"Montage"}`, http.StatusUnprocessableEntity},
		{"both workflow sources", `{"workflow_name":"Montage","workflow":{"tasks":[{"work":1}]},"strategy":"GAIN"}`, http.StatusUnprocessableEntity},
		{"both strategy forms", `{"workflow_name":"Montage","strategy":"GAIN","algorithm":"HEFT"}`, http.StatusUnprocessableEntity},
		{"unknown scenario", `{"workflow_name":"Montage","strategy":"GAIN","scenario":"frob"}`, http.StatusUnprocessableEntity},
		{"unknown region", `{"workflow_name":"Montage","strategy":"GAIN","region":"mars"}`, http.StatusUnprocessableEntity},
		{"unknown algorithm", `{"workflow_name":"Montage","algorithm":"simulated-annealing"}`, http.StatusUnprocessableEntity},
		{"allpar with wrong policy", `{"workflow_name":"Montage","algorithm":"AllPar","policy":"OneVMperTask"}`, http.StatusUnprocessableEntity},
		{"negative boot", `{"workflow_name":"Montage","strategy":"GAIN","simulate":true,"boot_s":-1}`, http.StatusUnprocessableEntity},
		{"boot without simulate", `{"workflow_name":"Montage","strategy":"GAIN","boot_s":10}`, http.StatusUnprocessableEntity},
		{"faults without simulate", `{"workflow_name":"Montage","strategy":"GAIN","fault_rate":0.5}`, http.StatusUnprocessableEntity},
		{"negative fault rate", `{"workflow_name":"Montage","strategy":"GAIN","simulate":true,"fault_rate":-1}`, http.StatusUnprocessableEntity},
		{"bad task_fail_prob", `{"workflow_name":"Montage","strategy":"GAIN","simulate":true,"task_fail_prob":1.5}`, http.StatusUnprocessableEntity},
		{"unknown recovery", `{"workflow_name":"Montage","strategy":"GAIN","simulate":true,"fault_rate":0.5,"recovery":"pray"}`, http.StatusUnprocessableEntity},
		{"invalid inline workflow", `{"workflow":{"tasks":[{"work":1}],"edges":[{"from":0,"to":9}]},"strategy":"GAIN"}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, b := postJSON(t, ts.URL+"/v1/schedule", c.body)
			if resp.StatusCode != c.code {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, c.code, b)
			}
			var eb errorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q not a JSON error envelope", b)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	if resp := getJSON(t, ts.URL+"/v1/schedule", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: status %d, want 405", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/catalog", `{}`)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/catalog: status %d, want 405", resp.StatusCode)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the only worker with a job that blocks until released, then
	// fill the queue's single slot with a second one.
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()

	go s.pool.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	go s.pool.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
	for i := 0; s.pool.Depth() != 1; i++ {
		if i > 1000 {
			t.Fatal("queued job never showed up")
		}
		time.Sleep(time.Millisecond)
	}

	resp, b := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, body %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := s.Metrics().RejectedTotal; got != 1 {
		t.Fatalf("rejected_total = %d, want 1", got)
	}

	// After releasing the pool, the same request is served.
	release()
	resp2, b2 := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, body %s", resp2.StatusCode, b2)
	}
}

func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: time.Nanosecond})
	resp, b := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s, want 503", resp.StatusCode, b)
	}
	if got := s.Metrics().TimeoutsTotal; got != 1 {
		t.Fatalf("timeouts_total = %d, want 1", got)
	}
}

// TestExpiredQueuedRequestFreesSlot: with the only worker busy and one
// queue slot, a request that gives up while queued hands its slot back at
// once, so the request sent right after it is admitted rather than
// rejected, and is served once the worker frees.
func TestExpiredQueuedRequestFreesSlot(t *testing.T) {
	const body = `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 10 * time.Second})
	defer s.Close()
	block, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()
	go s.pool.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started

	// A's own deadline expires while it waits in the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	a := httptest.NewRecorder()
	s.Handler().ServeHTTP(a, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)).WithContext(ctx))
	if a.Code != http.StatusServiceUnavailable {
		t.Fatalf("A: status %d, want 503: %s", a.Code, a.Body)
	}
	if d := s.pool.Depth(); d != 0 {
		t.Fatalf("queue depth %d after A gave up, want 0", d)
	}

	b, bDone := httptest.NewRecorder(), make(chan struct{})
	go func() {
		defer close(bDone)
		s.Handler().ServeHTTP(b, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	}()
	for i := 0; s.pool.Depth() != 1; i++ {
		select {
		case <-bDone:
			t.Fatalf("B: status %d while the worker was busy, want it queued: %s", b.Code, b.Body)
		case <-time.After(time.Millisecond):
		}
		if i > 5000 {
			t.Fatal("B never showed up in the queue")
		}
	}
	release()
	<-bDone
	if b.Code != http.StatusOK {
		t.Fatalf("B: status %d, want 200: %s", b.Code, b.Body)
	}
	if got := s.Metrics().RejectedTotal; got != 0 {
		t.Fatalf("rejected_total = %d, want 0", got)
	}
}

// TestPlanOutlivingTimeoutDrains runs a plan past its request's timeout:
// the request answers 503 and files its trace in the flight recorder
// while the plan still holds a span of that trace. Ending and annotating
// the span late must leave the filed spans alone and the worker alive,
// so Close, the drain on SIGTERM, returns.
func TestPlanOutlivingTimeoutDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	s.mux.HandleFunc("/v1/slow", func(w http.ResponseWriter, r *http.Request) {
		s.runCached(w, r, s.met.latency[0], spec.Key{}, func(ctx context.Context) (any, error) {
			sp, _ := obs.StartSpanCtx(ctx, "schedule")
			<-release
			sp.SetAttr("strategy", "late")
			sp.End()
			return nil, nil
		})
	})

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/slow", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	recs := s.flight.Records()
	filed := recs[len(recs)-1].Spans
	want := append([]obs.Span(nil), filed...)
	close(release)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the late span stranded the worker")
	}
	if !reflect.DeepEqual(filed, want) {
		t.Errorf("the late span wrote into the filed spans:\n got %+v\nwant %+v", filed, want)
	}
	for _, sp := range filed {
		if sp.Name == "schedule" && sp.End != 0 {
			t.Errorf("filed schedule span ended at %v after its request was filed", sp.End)
		}
	}
}

func TestCompare(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	body := `{"workflow_name":"Montage","scenario":"Best case"}`
	resp, b := postJSON(t, ts.URL+"/v1/compare", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out CompareResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 19 {
		t.Fatalf("compare returned %d strategies, want the catalog's 19", len(out.Results))
	}
	if out.BaselineMakespan <= 0 || out.BaselineCost <= 0 {
		t.Fatalf("degenerate baseline: %+v", out)
	}
	seen := map[string]bool{}
	for _, row := range out.Results {
		if row.Makespan <= 0 || row.Category == "" {
			t.Fatalf("degenerate row %+v", row)
		}
		seen[row.Strategy] = true
	}
	if !seen["OneVMperTask-s"] || !seen["CPA-Eager"] || !seen["GAIN"] {
		t.Fatalf("catalog strategies missing from %v", seen)
	}

	// Identical comparison: cache hit.
	resp2, b2 := postJSON(t, ts.URL+"/v1/compare", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second compare X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("cached compare bytes differ")
	}
	m := s.Metrics()
	if m.CompareRequests != 2 || m.CacheHits != 1 {
		t.Fatalf("compare counters: %+v", m)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var out CatalogResponse
	if resp := getJSON(t, ts.URL+"/v1/catalog", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The 19 paper strategies plus the two hedging provisioners.
	if len(out.Strategies) != 21 {
		t.Fatalf("catalog lists %d strategies, want 21", len(out.Strategies))
	}
	if len(out.Workflows) == 0 || len(out.Scenarios) == 0 || len(out.Regions) == 0 ||
		len(out.Policies) != 5 || len(out.Instances) == 0 || len(out.Generators) == 0 {
		t.Fatalf("catalog incomplete: %+v", out)
	}
	if len(out.Recoveries) != 3 || len(out.FaultPresets) == 0 {
		t.Fatalf("catalog missing fault options: recoveries %v, presets %v",
			out.Recoveries, out.FaultPresets)
	}
	if len(out.MarketPresets) == 0 || out.MarketPresets[0] != "none" {
		t.Fatalf("catalog missing market presets: %v", out.MarketPresets)
	}
}

func TestScheduleWithFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	body := `{"workflow_name":"montage24","strategy":"OneVMperTask-s","scenario":"Pareto","seed":7,
		"simulate":true,"fault_rate":1.0,"task_fail_prob":0.05,"recovery":"resubmit","fault_seed":3}`

	resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Simulation == nil || out.Simulation.Reliability == nil {
		t.Fatalf("fault replay returned no reliability block: %+v", out.Simulation)
	}
	rel := out.Simulation.Reliability
	if rel.Completed && rel.CompletedFraction != 1 {
		t.Fatalf("inconsistent completion: %+v", rel)
	}
	if !rel.Completed && rel.FailReason == "" {
		t.Fatalf("failed without a reason: %+v", rel)
	}

	// Same fault problem: cache hit with identical bytes (determinism over
	// the wire).
	resp2, b2 := postJSON(t, ts.URL+"/v1/schedule", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("identical fault request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("cached fault response bytes differ")
	}

	// A different fault seed is a different problem.
	resp3, _ := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"montage24","strategy":"OneVMperTask-s","scenario":"Pareto","seed":7,
		  "simulate":true,"fault_rate":1.0,"task_fail_prob":0.05,"recovery":"resubmit","fault_seed":4}`)
	if got := resp3.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("different fault seed X-Cache = %q, want MISS", got)
	}
}

func TestScheduleWithMarket(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	body := `{"workflow_name":"montage24","strategy":"SpotFallback","scenario":"Pareto","seed":7,
		"simulate":true,"market":"spot-fallback","preempt_rate":1.5,"recovery":"retry","fault_seed":3}`

	resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Market != "spot-fallback" {
		t.Fatalf("market echo = %q", out.Market)
	}
	if out.Simulation == nil || out.Simulation.Reliability == nil {
		t.Fatalf("preempting replay returned no reliability block: %+v", out.Simulation)
	}
	rel := out.Simulation.Reliability
	if rel.SpotPreemptions > 0 && rel.FallbackVMs == 0 {
		t.Fatalf("preempted spot leases without fallbacks: %+v", rel)
	}

	// Identical market problem: deterministic cache hit.
	resp2, b2 := postJSON(t, ts.URL+"/v1/schedule", body)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("identical market request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("cached market response bytes differ")
	}

	// Market fields are part of the problem: a different preset and a
	// different market seed each miss.
	for name, alt := range map[string]string{
		"preset": `{"workflow_name":"montage24","strategy":"SpotFallback","scenario":"Pareto","seed":7,
			"simulate":true,"market":"spot","preempt_rate":1.5,"recovery":"retry","fault_seed":3}`,
		"market_seed": `{"workflow_name":"montage24","strategy":"SpotFallback","scenario":"Pareto","seed":7,
			"simulate":true,"market":"spot-fallback","market_seed":9,"preempt_rate":1.5,"recovery":"retry","fault_seed":3}`,
	} {
		r, rb := postJSON(t, ts.URL+"/v1/schedule", alt)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, r.StatusCode, rb)
		}
		if got := r.Header.Get("X-Cache"); got != "MISS" {
			t.Fatalf("%s variant X-Cache = %q, want MISS", name, got)
		}
	}
}

func TestScheduleMarketValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for name, body := range map[string]string{
		"unknown preset":         `{"workflow_name":"Sequential","strategy":"GAIN","market":"bazaar"}`,
		"preempt needs simulate": `{"workflow_name":"Sequential","strategy":"GAIN","preempt_rate":1.0}`,
		"seed needs market":      `{"workflow_name":"Sequential","strategy":"GAIN","market_seed":4}`,
		"negative preempt":       `{"workflow_name":"Sequential","strategy":"GAIN","simulate":true,"preempt_rate":-1}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, b)
		}
	}
}

func TestHealthzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving: %d", resp.StatusCode)
	}
	s.StartDraining()
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	postJSON(t, ts.URL+"/v1/schedule", `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)
	postJSON(t, ts.URL+"/v1/schedule", `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)

	var m MetricsSnapshot
	if resp := getJSON(t, ts.URL+"/metrics?format=json", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m.ScheduleRequests != 2 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("snapshot %+v", m)
	}
	if m.CacheHitRatio != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", m.CacheHitRatio)
	}
	if m.Workers != 1 || m.QueueCapacity != 4 {
		t.Fatalf("pool geometry %+v", m)
	}
	if m.LatencyP50S <= 0 || m.LatencyP99S < m.LatencyP50S {
		t.Fatalf("latency percentiles %+v", m)
	}
}

func TestMetricsPrometheusText(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	postJSON(t, ts.URL+"/v1/schedule", `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parsePrometheusText(t, string(b))
	if len(series) < 10 {
		t.Fatalf("only %d series, acceptance wants ≥ 10", len(series))
	}
	if v := series[`wfservd_requests_total{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("schedule requests = %v, want 1", v)
	}
	if v := series[`wfservd_cache_requests_total{result="miss"}`]; v != 1 {
		t.Fatalf("cache misses = %v, want 1", v)
	}
	if v, ok := series["wfservd_workers"]; !ok || v != 1 {
		t.Fatalf("workers gauge = %v (present %v), want 1", v, ok)
	}
	if v := series[`wfservd_plan_duration_seconds_count{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("latency count = %v, want 1", v)
	}
}

func TestRequestIDAndDrainAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// A generated request ID is echoed back.
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID on response")
	}

	// An inbound request ID is honored verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}

	// Requests finishing after StartDraining count as drain completions.
	s.StartDraining()
	getJSON(t, ts.URL+"/healthz", nil)
	if got := s.DrainCompleted(); got != 1 {
		t.Fatalf("DrainCompleted = %d, want 1", got)
	}
	if got := s.Active(); got != 0 {
		t.Fatalf("Active = %d, want 0 at rest", got)
	}
}
