package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// endpointRequests is one small request per planning endpoint, with the
// response type its body decodes into.
var endpointRequests = []struct {
	path, body string
	resp       func() any
}{
	{"/v1/schedule", `{"workflow_name":"montage24","strategy":"GAIN","seed":1}`, func() any { return new(ScheduleResponse) }},
	{"/v1/compare", `{"workflow_name":"CSTEM","seed":1}`, func() any { return new(CompareResponse) }},
	{"/v1/sla", `{"template_name":"order","deadline_s":4000,"samples":10,"strategies":["GAIN","CPA-Eager"],"markets":["none","spot"]}`,
		func() any { return new(SLAResponse) }},
	{"/v1/online", `{"template_name":"order","interarrival_s":300,"instances":20,"seed":4}`, func() any { return new(OnlineResponse) }},
}

// TestTrailingDataRejected pins the strict decode: a body holds one JSON
// value, and anything but whitespace after it is a 400, not a planned (or
// cached) answer to the first value alone.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, e := range endpointRequests {
		for _, tail := range []string{" trailing garbage", `{"workflow_name":"CSTEM"}`, "]", "\n{}"} {
			resp, b := postJSON(t, ts.URL+e.path, e.body+tail)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "invalid request body") {
				t.Errorf("%s with %q appended: status %d, body %s; want 400", e.path, tail, resp.StatusCode, b)
			}
		}
		if resp, b := postJSON(t, ts.URL+e.path, e.body+" \r\n\t"); resp.StatusCode != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, body %s", e.path, resp.StatusCode, b)
		}
	}
}

// TestMissAndHitBytesAreIndentedJSON checks the response format on every
// endpoint: a miss and its hit answer the same bytes, and those are
// exactly what json.MarshalIndent writes for the decoded response, plus a
// newline.
func TestMissAndHitBytesAreIndentedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, e := range endpointRequests {
		miss, missBody := postJSON(t, ts.URL+e.path, e.body)
		hit, hitBody := postJSON(t, ts.URL+e.path, e.body)
		if miss.StatusCode != http.StatusOK || miss.Header.Get("X-Cache") != "MISS" || hit.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: status %d, X-Cache %q then %q: %s", e.path, miss.StatusCode,
				miss.Header.Get("X-Cache"), hit.Header.Get("X-Cache"), missBody)
		}
		if !bytes.Equal(missBody, hitBody) {
			t.Errorf("%s: the hit answers different bytes than the miss", e.path)
		}
		v := e.resp()
		dec := json.NewDecoder(bytes.NewReader(missBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s: decoding the response: %v", e.path, err)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(missBody, want) {
			t.Errorf("%s: body is not json.MarshalIndent of its value:\n got %q\nwant %q", e.path, missBody, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status, reusable
// across requests.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestScheduleHitAllocs pins the cost of a /v1/schedule cache hit: decode,
// validate (names checked, no DAG built), key, lookup and one write of
// the cached bytes, with the request built once outside the measured
// loop. Building the workflow on every hit, as the handler once did, cost
// about 1,600 allocations; indenting the body on every hit and building
// the spec's workflow memo, 55.
func TestScheduleHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	h := s.Handler()
	body := []byte(`{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":7}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", io.NopCloser(rd))
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.header)
		w.code = 0
		h.ServeHTTP(w, req)
	}
	serve() // the miss that fills the cache
	if w.code != http.StatusOK || w.header.Get("X-Cache") != "MISS" {
		t.Fatalf("first request: status %d, X-Cache %q", w.code, w.header.Get("X-Cache"))
	}
	// Under the race detector the pools behind fmt.Sprintf and
	// json.Marshal drop items at random, which costs a few more.
	ceiling := 43.0
	if raceEnabled {
		ceiling = 50
	}
	allocs := testing.AllocsPerRun(200, serve)
	if w.code != http.StatusOK || w.header.Get("X-Cache") != "HIT" {
		t.Fatalf("repeat request: status %d, X-Cache %q", w.code, w.header.Get("X-Cache"))
	}
	if allocs > ceiling {
		t.Errorf("a cache hit costs %.0f allocations, ceiling %.0f", allocs, ceiling)
	}
	t.Logf("%.0f allocations per hit", allocs)
}
