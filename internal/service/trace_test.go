package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// slaTraceBody mixes a feasible restricted portfolio with a deadline low
// enough to prune nothing yet sample everything deterministically.
const slaTraceBody = `{"template_name":"order","deadline_s":4000,"confidence":0.9,` +
	`"samples":10,"seed":7,"strategies":["OneVMperTask-s","AllParExceed-m"]}`

// TestRequestTracePropagation covers the trace-context invariant: every
// response carries a traceparent naming the request's root span, an
// inbound traceparent's trace ID is continued, and without one the trace
// ID derives deterministically from the request ID.
func TestRequestTracePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20})

	// No inbound context: trace ID must derive from the request ID.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "req-fixed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	tid, sid, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
	if want := obs.DeriveTraceID("wfservd", "req-fixed"); tid != want {
		t.Errorf("derived trace ID %s, want %s (deterministic from request ID)", tid, want)
	}
	if sid.IsZero() {
		t.Error("root span ID is zero")
	}

	// Inbound context: the trace ID continues through the response.
	const inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req2.Header.Set("traceparent", inbound)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	tid2, _, ok := obs.ParseTraceparent(resp2.Header.Get("traceparent"))
	if !ok || tid2.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("inbound trace not continued: response traceparent %q", resp2.Header.Get("traceparent"))
	}
}

// TestFlightOutcomes serves one request of each kind and checks what its
// flight record says about it: the outcome, the cache_lookup span's
// result, the queue_wait span's admission verdict, and a plan span only
// for a job a worker started.
func TestFlightOutcomes(t *testing.T) {
	const body = `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	// busy's only worker is held until the test ends, so a request to it
	// waits out its deadline in the queue's one slot. An expired request
	// gives its slot back, so the rejected request first finds the slot
	// taken by a live queued job.
	busy := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 20 * time.Millisecond})
	defer busy.Close()
	block, started := make(chan struct{}), make(chan struct{})
	defer close(block)
	go busy.pool.Submit(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	fillQueue := func() {
		go busy.pool.Submit(context.Background(), func(context.Context) (any, error) { return nil, nil })
		for i := 0; busy.pool.Depth() != 1; i++ {
			if i > 1000 {
				t.Fatal("queued job never showed up")
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, tc := range []struct {
		name, method, path, body string
		srv                      *Server
		before                   func()
		status                   int
		outcome                  string
		lookup, admission        string // span attributes; "" for no span or no attribute
		plan                     bool
	}{
		{"miss", http.MethodPost, "/v1/schedule", body, s, nil, http.StatusOK, "ok", "miss", "admitted", true},
		{"hit", http.MethodPost, "/v1/schedule", body, s, nil, http.StatusOK, "cache_hit", "hit", "", false},
		{"timeout", http.MethodPost, "/v1/schedule", body, busy, nil, http.StatusServiceUnavailable, "timeout", "miss", "", false},
		{"rejected", http.MethodPost, "/v1/schedule", body, busy, fillQueue, http.StatusTooManyRequests, "rejected", "miss", "rejected", false},
		{"invalid", http.MethodPost, "/v1/schedule", `{"workflow_name":"Sequential","strategy":"NoSuch"}`, s, nil,
			http.StatusUnprocessableEntity, "error", "", "", false},
		{"draining", http.MethodGet, "/healthz", "", s, s.StartDraining, http.StatusServiceUnavailable, "draining", "", "", false},
	} {
		if tc.before != nil {
			tc.before()
		}
		w := httptest.NewRecorder()
		tc.srv.Handler().ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, w.Code, tc.status, w.Body)
		}
		recs := tc.srv.flight.Records()
		rec := recs[len(recs)-1]
		if rec.Status != tc.status || rec.Outcome != tc.outcome {
			t.Errorf("%s: flight record status %d outcome %q, want %d %q", tc.name, rec.Status, rec.Outcome, tc.status, tc.outcome)
		}
		if got := spanAttr(rec.Spans, "cache_lookup", "result"); got != tc.lookup {
			t.Errorf("%s: cache_lookup result %q, want %q", tc.name, got, tc.lookup)
		}
		if got := spanAttr(rec.Spans, "queue_wait", "admission"); got != tc.admission {
			t.Errorf("%s: queue_wait admission %q, want %q", tc.name, got, tc.admission)
		}
		plan := false
		for _, sp := range rec.Spans {
			plan = plan || sp.Name == "plan"
		}
		if plan != tc.plan {
			t.Errorf("%s: plan span %v, want %v", tc.name, plan, tc.plan)
		}
	}
}

// spanAttr returns the value of attribute key on the span named name, or
// "" when there is no such span or attribute.
func spanAttr(spans []obs.Span, name, key string) string {
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return ""
}

// TestSLAFlightAndExplain is the acceptance path: one traced POST /v1/sla
// lands in the flight recorder with its stage spans, /debug/flight serves
// it as NDJSON and as a Chrome-trace request track, and the response's
// explain block accounts for the whole portfolio.
func TestSLAFlightAndExplain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20, FlightSize: 16})

	resp, body := postJSON(t, ts.URL+"/v1/sla", slaTraceBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	traceID, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("no traceparent on SLA response")
	}

	var out SLAResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatal("response has no explain block")
	}
	e := out.Explain
	if e.PrunedCount+e.SampledCount != e.PortfolioSize {
		t.Errorf("explain counts do not sum: %d pruned + %d sampled != %d portfolio",
			e.PrunedCount, e.SampledCount, e.PortfolioSize)
	}
	if e.PortfolioSize != out.Considered || len(e.Verdicts) != e.PortfolioSize {
		t.Errorf("explain portfolio %d, verdicts %d, considered %d",
			e.PortfolioSize, len(e.Verdicts), out.Considered)
	}
	if out.Met && e.Winner == "" {
		t.Error("met search has no winner in the audit")
	}
	winners := 0
	for _, v := range e.Verdicts {
		if v.Fate != "pruned" && v.Fate != "sampled" {
			t.Errorf("verdict fate %q", v.Fate)
		}
		if v.Reason == "" {
			t.Errorf("verdict %s@%s has no reason", v.Strategy, v.Market)
		}
		if v.Winner {
			winners++
			if e.Winner != v.Strategy+"@"+v.Market {
				t.Errorf("winner mismatch: %q vs verdict %s@%s", e.Winner, v.Strategy, v.Market)
			}
		}
	}
	if out.Met && winners != 1 {
		t.Errorf("met search marked %d winners, want 1", winners)
	}

	// The flight recorder holds the request, addressed by the response's
	// trace ID, with the full stage-span breakdown.
	var rec *obs.FlightRecord
	for _, r := range s.flight.Records() {
		if r.Trace == traceID {
			cp := r
			rec = &cp
		}
	}
	if rec == nil {
		t.Fatalf("trace %s not in flight recorder", traceID)
	}
	if rec.Route != "sla" || rec.Status != http.StatusOK || rec.Outcome != "ok" {
		t.Errorf("flight record = %+v", rec)
	}
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	for _, want := range []string{"POST /v1/sla", "cache_lookup", "queue_wait", "plan", "sla_search"} {
		if names[want] == 0 {
			t.Errorf("span %q missing; recorded %v", want, names)
		}
	}
	// One candidate span per sampled portfolio entry.
	candidates := 0
	for name, n := range names {
		if strings.HasPrefix(name, "candidate ") {
			candidates += n
		}
	}
	if candidates != e.PortfolioSize {
		t.Errorf("%d candidate spans, want %d (one per portfolio entry)", candidates, e.PortfolioSize)
	}

	// /debug/flight: every line parses as NDJSON; the SLA request's line
	// carries its spans.
	httpResp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("flight Content-Type = %q", ct)
	}
	found := false
	sc := bufio.NewScanner(httpResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Trace string `json:"trace"`
			Route string `json:"route"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("flight line not JSON: %v: %s", err, sc.Text())
		}
		if line.Trace == traceID.String() {
			found = true
			if len(line.Spans) == 0 {
				t.Error("SLA flight line has no spans")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Errorf("trace %s not in /debug/flight output", traceID)
	}

	// ?format=trace: a Chrome-trace document with a request track whose
	// spans include the admission→search stages.
	httpResp2, err := http.Get(ts.URL + "/debug/flight?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp2.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(httpResp2.Body).Decode(&doc); err != nil {
		t.Fatalf("flight trace not valid JSON: %v", err)
	}
	spanNames := map[string]bool{}
	requestTrack := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "request" {
			spanNames[ev.Name] = true
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, _ := ev.Args["name"].(string); n == "requests" {
				requestTrack = true
			}
		}
	}
	if !requestTrack {
		t.Error("no requests process in the Chrome-trace document")
	}
	for _, want := range []string{"POST /v1/sla", "queue_wait", "sla_search"} {
		if !spanNames[want] {
			t.Errorf("Chrome-trace request track missing span %q; have %v", want, spanNames)
		}
	}
}

// TestSLATraceDeterministic re-runs the same SLA request on fresh servers
// and checks the span structure (names, IDs, parentage) is identical —
// only timestamps may differ.
func TestSLATraceDeterministic(t *testing.T) {
	type skeleton struct {
		Name, ID, Parent string
	}
	capture := func() []skeleton {
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheBytes: 4 << 20, FlightSize: 4})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sla", strings.NewReader(slaTraceBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", "req-pinned")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		recs := s.flight.Records()
		if len(recs) != 1 {
			t.Fatalf("flight records = %d, want 1", len(recs))
		}
		var out []skeleton
		for _, sp := range recs[0].Spans {
			out = append(out, skeleton{sp.Name, sp.ID.String(), sp.Parent.String()})
		}
		return out
	}
	a, b := capture(), capture()
	if len(a) == 0 {
		t.Fatal("no spans captured")
	}
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("span %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
