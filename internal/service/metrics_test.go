package service

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyQuantiles(t *testing.T) {
	m := newServiceMetrics()
	h := m.latency.With("schedule")
	// 90 fast samples, 10 slow ones: p50 must sit near the fast mode,
	// p99 at or above the slow mode.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	p50, p99 := m.latency.Quantile(0.50), m.latency.Quantile(0.99)
	if p50 < 0.0005 || p50 > 0.005 {
		t.Fatalf("p50 = %v s, want ~1ms bucket", p50)
	}
	if p99 < 0.5 {
		t.Fatalf("p99 = %v s, want ≥ 0.5", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if mean := m.latency.Mean(); mean < 0.01 || mean > 0.1 {
		t.Fatalf("mean = %v s, want ≈ 0.0509", mean)
	}
}

func TestLatencyEmpty(t *testing.T) {
	m := newServiceMetrics()
	if m.latency.Quantile(0.5) != 0 || m.latency.Mean() != 0 {
		t.Fatal("empty histogram must answer 0")
	}
}

func TestLatencyConcurrentObserve(t *testing.T) {
	m := newServiceMetrics()
	h := m.latency.With("schedule")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := m.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `wfservd_plan_duration_seconds_count{endpoint="schedule"} 8000` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
}

func TestEndpointOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/schedule":  "schedule",
		"/v1/compare":   "compare",
		"/v1/sla":       "sla",
		"/v1/online":    "online",
		"/v1/catalog":   "catalog",
		"/metrics":      "metrics",
		"/healthz":      "healthz",
		"/debug/flight": "flight",
		"/debug/vars":   "other",
		"/":             "other",
	} {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestSnapshotFromRegistry(t *testing.T) {
	m := newServiceMetrics()
	m.requests.With("schedule").Inc()
	m.requests.With("schedule").Inc()
	m.requests.With("compare").Inc()
	m.cacheHits.Inc()
	m.cacheMisses.Add(3)
	m.rejected.Inc()
	m.timeouts.Inc()
	m.errors.Inc()
	m.inflight.Add(2)
	m.recordSim(100, 5, 1, 2, 1, 1)

	snap := m.snapshot(7, 16, 4, 9)
	if snap.RequestsTotal != 3 || snap.ScheduleRequests != 2 || snap.CompareRequests != 1 {
		t.Fatalf("request counters: %+v", snap)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 3 || snap.CacheHitRatio != 0.25 {
		t.Fatalf("cache counters: %+v", snap)
	}
	if snap.RejectedTotal != 1 || snap.TimeoutsTotal != 1 || snap.ErrorsTotal != 1 {
		t.Fatalf("error counters: %+v", snap)
	}
	if snap.QueueDepth != 7 || snap.QueueCapacity != 16 || snap.Workers != 4 || snap.CacheEntries != 9 {
		t.Fatalf("pool geometry: %+v", snap)
	}
	if snap.Inflight != 2 {
		t.Fatalf("inflight = %d, want 2", snap.Inflight)
	}
	if v := m.simOutcomes.With("event").Value(); v != 100 {
		t.Fatalf("sim event counter = %v, want 100", v)
	}
	if time.Since(m.start) < 0 || snap.UptimeSeconds < 0 {
		t.Fatal("uptime went backwards")
	}
}

// parsePrometheusText is a minimal parser of the Prometheus text
// exposition format (0.0.4): it validates the # HELP / # TYPE structure
// line by line and returns series name (with labels) → value. It is the
// smoke-check CI runs against GET /metrics — a syntax error in the
// exposition writer fails here, not at the first real scrape.
func parsePrometheusText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	typed := map[string]string{}
	helped := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		// A histogram bucket may carry an OpenMetrics-style exemplar after
		// " # " — strip it (validating its shape) before parsing the sample.
		sample := line
		if body, ex, ok := strings.Cut(line, " # "); ok {
			sample = body
			exIdx := strings.LastIndexByte(ex, ' ')
			if !strings.HasPrefix(ex, "{") || exIdx < 0 {
				t.Fatalf("line %d: malformed exemplar: %q", ln+1, line)
			}
			if _, err := strconv.ParseFloat(ex[exIdx+1:], 64); err != nil {
				t.Fatalf("line %d: bad exemplar value: %v", ln+1, err)
			}
			if !strings.Contains(sample, "_bucket") {
				t.Fatalf("line %d: exemplar outside a histogram bucket: %q", ln+1, line)
			}
		}
		// name{labels} value — labels may contain spaces inside quotes, but
		// the value is always the last space-separated field.
		idx := strings.LastIndexByte(sample, ' ')
		if idx < 0 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		name, valStr := sample[:idx], sample[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("line %d: unbalanced labels: %q", ln+1, line)
			}
			base = base[:i]
		}
		famBase := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[famBase]; !ok {
				t.Fatalf("line %d: series %q has no preceding # TYPE", ln+1, base)
			}
		}
		if !helped[base] && !helped[famBase] {
			t.Fatalf("line %d: series %q has no preceding # HELP", ln+1, base)
		}
		series[name] = val
	}
	return series
}

func TestWritePrometheusParses(t *testing.T) {
	m := newServiceMetrics()
	m.requests.With("schedule").Inc()
	m.latency.With("schedule").Observe(0.002)
	var sb strings.Builder
	if err := m.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheusText(t, sb.String())
	if v := series[`wfservd_requests_total{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("requests series = %v, want 1; got series:\n%s", v, sb.String())
	}
	if v := series[`wfservd_plan_duration_seconds_count{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("histogram count = %v, want 1", v)
	}
	// A fresh registry must already expose a healthy schema: the
	// acceptance bar is ≥10 distinct series on a fresh server.
	if len(series) < 10 {
		t.Fatalf("only %d series exposed, want ≥ 10", len(series))
	}
	// Cumulative histograms: the +Inf bucket must equal the count.
	inf := series[`wfservd_plan_duration_seconds_bucket{endpoint="schedule",le="+Inf"}`]
	if count := series[`wfservd_plan_duration_seconds_count{endpoint="schedule"}`]; inf != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
}

// TestMetricsEndpointHygiene scrapes a live server's GET /metrics and
// holds the exposition to the format contract: every family's HELP/TYPE
// lines precede its samples (parsePrometheusText fails otherwise, even
// with exemplars attached), and the process gauges — uptime and goroutine
// count — are present and sane.
func TestMetricsEndpointHygiene(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	// Exercise a planning path first so a latency histogram has samples
	// (and an exemplar) in the exposition.
	if resp, body := postJSON(t, ts.URL+"/v1/sla", slaTraceBody); resp.StatusCode != 200 {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parsePrometheusText(t, string(text))
	if v, ok := series["wfservd_uptime_seconds"]; !ok || v < 0 {
		t.Errorf("wfservd_uptime_seconds = %v, present %v", v, ok)
	}
	if v, ok := series["wfservd_goroutines"]; !ok || v < 1 {
		t.Errorf("wfservd_goroutines = %v, present %v (a serving process has goroutines)", v, ok)
	}
}
