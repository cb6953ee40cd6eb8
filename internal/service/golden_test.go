package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// metricsSequence is the fixed request sequence TestMetricsGolden replays
// before it scrapes: a schedule miss and its hit, a faulty simulate miss,
// a compare, an SLA search, a 422 and a health check.
var metricsSequence = []struct {
	method, path, body string
	status             int
}{
	{"POST", "/v1/schedule", `{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":42}`, 200},
	{"POST", "/v1/schedule", `{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":42}`, 200},
	{"POST", "/v1/schedule", `{"workflow_name":"CSTEM","strategy":"GAIN","scenario":"Pareto","seed":3,` +
		`"simulate":true,"fault_rate":1.0,"task_fail_prob":0.05,"recovery":"resubmit","fault_seed":3}`, 200},
	{"POST", "/v1/compare", `{"workflow_name":"CSTEM","scenario":"Pareto","seed":42}`, 200},
	{"POST", "/v1/sla", slaTraceBody, 200},
	{"POST", "/v1/schedule", `{"workflow_name":"Montage","strategy":"no-such-strategy"}`, 422},
	{"GET", "/healthz", "", 200},
}

// maskedSample reports whether a sample's value depends on wall-clock
// time: the uptime, the goroutine count, and the planning-latency buckets
// and sums (the per-endpoint counts stay, they count requests).
func maskedSample(line string) bool {
	for _, p := range []string{"wfservd_uptime_seconds ", "wfservd_goroutines ",
		"wfservd_plan_duration_seconds_bucket{", "wfservd_plan_duration_seconds_sum{"} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// TestMetricsGolden pins both views of GET /metrics after metricsSequence:
// the Prometheus text byte for byte, once each timing-valued sample is
// masked to its series, and the JSON snapshot's document with its timing
// fields zeroed. Any drift means a series, a label, a family's order or
// a counter changed; re-record with -update only when that is the intent.
func TestMetricsGolden(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20})
	defer s.Close()
	h := s.Handler()
	do := func(method, path, body string, status int) []byte {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != status {
			t.Fatalf("%s %s: status %d, want %d; body %s", method, path, rec.Code, status, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, r := range metricsSequence {
		do(r.method, r.path, r.body, r.status)
	}

	// The mask would hide anything after a masked value, so the raw
	// scrape is held to the sample grammar first.
	raw := string(do("GET", "/metrics", "", http.StatusOK))
	parsePrometheusText(t, raw)
	var text bytes.Buffer
	for _, line := range strings.SplitAfter(raw, "\n") {
		if maskedSample(line) {
			line = line[:strings.IndexByte(line, ' ')] + " <masked>\n"
		}
		text.WriteString(line)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(do("GET", "/metrics?format=json", "", http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	snap.UptimeSeconds = 0
	snap.LatencyMeanS, snap.LatencyP50S, snap.LatencyP95S, snap.LatencyP99S = 0, 0, 0, 0
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"metrics.golden", text.Bytes()},
		{"metrics_json.golden", append(doc, '\n')},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden:\n%s", path, g.got)
		}
	}
}
