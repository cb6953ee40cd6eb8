package service

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
)

func TestLatencyQuantiles(t *testing.T) {
	m := newServiceMetrics()
	h := m.addLatency("schedule")
	// 90 fast samples, 10 slow ones: p50 must sit near the fast mode,
	// p99 at or above the slow mode.
	for i := 0; i < 90; i++ {
		h.observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.observe(0.5)
	}
	p50, p99 := quantile(m.latency, 0.50), quantile(m.latency, 0.99)
	if p50 < 0.0005 || p50 > 0.005 {
		t.Fatalf("p50 = %v s, want ~1ms bucket", p50)
	}
	if p99 < 0.5 {
		t.Fatalf("p99 = %v s, want ≥ 0.5", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if mean := mean(m.latency); mean < 0.01 || mean > 0.1 {
		t.Fatalf("mean = %v s, want ≈ 0.0509", mean)
	}

	// A second endpoint pools into both: the mean sums the series in
	// endpoint order, and the slow samples now hold the median.
	c := m.addLatency("compare")
	for i := 0; i < 100; i++ {
		c.observe(0.5)
	}
	want := 0.0
	for _, h := range m.latency {
		want += math.Float64frombits(h.sum.Load())
	}
	if got := mean(m.latency); got != want/200 {
		t.Fatalf("pooled mean = %v, want %v", got, want/200)
	}
	if got := quantile(m.latency, 0.5); got != 0.65536 {
		t.Fatalf("pooled p50 = %v, want the 0.5 s sample's bucket edge 0.65536", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	m := newServiceMetrics()
	if quantile(m.latency, 0.5) != 0 || mean(m.latency) != 0 {
		t.Fatal("no latency series must answer 0")
	}
	m.addLatency("schedule")
	if quantile(m.latency, 0.5) != 0 || mean(m.latency) != 0 {
		t.Fatal("empty histogram must answer 0")
	}
}

// TestHistogramEmpty pins the empty answers of one bare histogram: every
// quantile and the mean are 0, and it renders zero buckets.
func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1}, "")
	if quantile([]*histogram{h}, 0.9) != 0 || quantile([]*histogram{h}, 0.5) != 0 || mean([]*histogram{h}) != 0 {
		t.Error("empty histogram quantile/mean != 0")
	}
	var e expo
	e.histogram("empty", h)
	want := `empty_bucket{le="1"} 0` + "\n" + `empty_bucket{le="+Inf"} 0` + "\n" +
		"empty_sum 0\nempty_count 0\n"
	if string(e) != want {
		t.Errorf("rendered\n%s\nwant\n%s", e, want)
	}
}

// TestHistogramQuantileExtremes pins the rank clamp at the quantile
// extremes: q = 0 means "the bucket of the first observation" (rank
// clamps up to 1), q ≥ 1 the bucket of the last (rank clamps down to
// total), and neither may walk past the bucket array.
func TestHistogramQuantileExtremes(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10}, "")
	for _, s := range []float64{0.05, 0.5, 5} {
		h.observe(s)
	}
	pooled := []*histogram{h, newHistogram(h.bounds, "")}
	cases := []struct{ q, want float64 }{
		{0, 0.1},    // rank 0 clamps to the first observation's bucket
		{0.5, 1},    // the median observation
		{0.99, 10},  // upper bound of the last observation
		{1, 10},     // exactly the last rank
		{1.5, 10},   // out-of-domain q clamps to the last rank
		{-0.5, 0.1}, // negative q clamps to the first rank
	}
	for _, c := range cases {
		if got := quantile([]*histogram{h}, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := quantile(pooled, c.q); got != c.want {
			t.Errorf("pooled quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A single observation in the overflow bucket: every q answers the top
	// finite edge, including the formerly risky q = 1.
	o := newHistogram([]float64{1, 2}, "")
	o.observe(99)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile([]*histogram{o}, q); got != 2 {
			t.Errorf("overflow quantile(%v) = %v, want 2", q, got)
		}
	}
}

// TestHistogramBucketEdges pins the le semantics: a sample equal to a
// bound counts in that bound's bucket, buckets render cumulatively with
// the series' labels before le, and the sum and count follow.
func TestHistogramBucketEdges(t *testing.T) {
	for _, c := range []struct{ labels, open string }{
		{"", "{"},
		{`endpoint="schedule"`, `{endpoint="schedule",`},
	} {
		h := newHistogram([]float64{0.25, 1, 4}, c.labels)
		for _, s := range []float64{0.125, 0.25, 0.5, 1, 2, 8} {
			h.observe(s)
		}
		var e expo
		e.histogram("lat", h)
		tail := ""
		if c.labels != "" {
			tail = "{" + c.labels + "}"
		}
		want := "lat_bucket" + c.open + `le="0.25"} 2` + "\n" +
			"lat_bucket" + c.open + `le="1"} 4` + "\n" +
			"lat_bucket" + c.open + `le="4"} 5` + "\n" +
			"lat_bucket" + c.open + `le="+Inf"} 6` + "\n" +
			"lat_sum" + tail + " 11.875\n" +
			"lat_count" + tail + " 6\n"
		if string(e) != want {
			t.Errorf("labels %q: rendered\n%s\nwant\n%s", c.labels, e, want)
		}
		if got := quantile([]*histogram{h}, 0.5); got != 1 {
			t.Errorf("labels %q: p50 = %v, want bucket edge 1", c.labels, got)
		}
	}
}

// TestLatencyConcurrentObserve races observations on one endpoint's
// latency series from eight goroutines (run it under -race): none may be
// lost from the exposition.
func TestLatencyConcurrentObserve(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.met.latency[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.observe(float64(i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := s.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `wfservd_plan_duration_seconds_count{endpoint="schedule"} 8000` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
}

// TestConcurrentUpdates races counter adds on two endpoints' cells, a
// plain counter and histogram observations from eight goroutines (run it
// under -race): every add and every observation lands, in the right
// bucket and the float sum.
func TestConcurrentUpdates(t *testing.T) {
	m := newServiceMetrics()
	h := newHistogram([]float64{0.001, 0.01, 0.1, 1}, "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.requests[w%2].Add(1)
				m.cacheHits.Add(1)
				h.observe(0.25)
			}
		}(w)
	}
	wg.Wait()
	if got := m.requests[0].Load() + m.requests[1].Load(); got != 8000 {
		t.Errorf("requests total = %d, want 8000", got)
	}
	if got := m.requests[0].Load(); got != 4000 {
		t.Errorf("requests[0] = %d, want 4000", got)
	}
	if got := m.cacheHits.Load(); got != 8000 {
		t.Errorf("cache hits = %d, want 8000", got)
	}
	if got := h.count.Load(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
	if got := h.buckets[3].Load(); got != 8000 {
		t.Errorf("le=1 bucket = %d, want all 8000 samples", got)
	}
	if got := math.Float64frombits(h.sum.Load()); got != 2000 {
		t.Errorf("sum = %v, want 2000", got)
	}
}

func TestEndpointOf(t *testing.T) {
	m := newServiceMetrics()
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
		if got := m.endpoints[endpointOf(path)]; got != want {
			t.Errorf("endpointOf(%q) labels %q, want %q", path, got, want)
		}
	}
}

func TestSnapshotFromRegistry(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	defer s.Close()
	m := s.met
	m.requests[endpointOf("/v1/schedule")].Add(2)
	m.requests[endpointOf("/v1/compare")].Add(1)
	m.cacheHits.Add(1)
	m.cacheMisses.Add(3)
	m.rejected.Add(1)
	m.timeouts.Add(1)
	m.errors.Add(1)
	m.inflight.Add(2)
	m.recordSim(100, 5, 1, 2, 1, 1)
	for i := 0; i < 9; i++ {
		s.cache.Put(spec.Key{byte(i)}, []byte("{}"))
	}

	snap := s.Metrics()
	if snap.RequestsTotal != 3 || snap.ScheduleRequests != 2 || snap.CompareRequests != 1 {
		t.Fatalf("request counters: %+v", snap)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 3 || snap.CacheHitRatio != 0.25 {
		t.Fatalf("cache counters: %+v", snap)
	}
	if snap.RejectedTotal != 1 || snap.TimeoutsTotal != 1 || snap.ErrorsTotal != 1 {
		t.Fatalf("error counters: %+v", snap)
	}
	if snap.QueueDepth != 0 || snap.QueueCapacity != 16 || snap.Workers != 4 || snap.CacheEntries != 9 {
		t.Fatalf("pool geometry: %+v", snap)
	}
	if snap.Inflight != 2 {
		t.Fatalf("inflight = %d, want 2", snap.Inflight)
	}
	if v := m.simOutcomes[0].Load(); v != 100 {
		t.Fatalf("sim event counter = %v, want 100", v)
	}
	if time.Since(m.start) < 0 || snap.UptimeSeconds < 0 {
		t.Fatal("uptime went backwards")
	}
}

// parseExposition is a minimal parser of the Prometheus text exposition
// format (0.0.4): it validates the # HELP / # TYPE structure line by line
// and returns series name (with labels) → value. A sample line is the
// series, one space and its value, and nothing after: the format allows
// an integer timestamp there, which the daemon never writes, and nothing
// else (an OpenMetrics exemplar breaks a 0.0.4 scrape).
func parseExposition(text string) (map[string]float64, error) {
	series := map[string]float64{}
	typed := map[string]string{}
	helped := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) (map[string]float64, error) {
			return nil, fmt.Errorf("line %d: %s: %q", ln+1, fmt.Sprintf(format, args...), line)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return fail("malformed HELP")
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return fail("malformed TYPE")
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fail("unknown metric type %q", typ)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fail("unknown comment form")
		}
		end, err := seriesEnd(line)
		if err != nil {
			return fail("%v", err)
		}
		name := line[:end]
		valStr, ok := strings.CutPrefix(line[end:], " ")
		if !ok || valStr == "" || strings.ContainsAny(valStr, " \t") {
			return fail("want one value after the series")
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fail("bad value: %v", err)
		}
		base, _, _ := strings.Cut(name, "{")
		famBase := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[famBase]; !ok {
				return fail("series %q has no preceding # TYPE", base)
			}
		}
		if !helped[base] && !helped[famBase] {
			return fail("series %q has no preceding # HELP", base)
		}
		series[name] = val
	}
	return series, nil
}

// seriesEnd returns the length of a sample line's series: its name and,
// when present, its {label} block, whose quoted values may hold spaces,
// braces and escapes.
func seriesEnd(line string) (int, error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return 0, errors.New("no series name and value")
	}
	if line[i] == ' ' {
		return i, nil
	}
	quoted := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case quoted && c == '\\':
			j++
		case c == '"':
			quoted = !quoted
		case !quoted && c == '}':
			return j + 1, nil
		}
	}
	return 0, errors.New("unbalanced labels")
}

// parsePrometheusText is parseExposition failing the test on a malformed
// exposition. It is the smoke-check CI runs against GET /metrics: a
// syntax error in the exposition writer fails here, not at the first real
// scrape.
func parsePrometheusText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestParseExpositionRejectsTrailingTokens holds the parser to the 0.0.4
// sample grammar: anything after a sample's value, an OpenMetrics
// exemplar included, fails the parse.
func TestParseExpositionRejectsTrailingTokens(t *testing.T) {
	const head = "# HELP lat latency\n# TYPE lat histogram\n"
	if _, err := parseExposition(head + `lat_bucket{endpoint="a b}",le="1"} 1` + "\n"); err != nil {
		t.Fatalf("a well-formed sample failed: %v", err)
	}
	for _, line := range []string{
		`lat_bucket{le="1"} 1 # {trace_id="1a1a"} 0.000494216`,
		`lat_bucket{le="1"} 1 1700000000000`,
		`lat_count 1 extra`,
		`lat_count  1`,
		`lat_count`,
		`lat_bucket{le="1" 1`,
	} {
		if _, err := parseExposition(head + line + "\n"); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestWritePrometheusParses(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.met.requests[endpointOf("/v1/schedule")].Add(1)
	s.met.latency[0].observe(0.002)
	var sb strings.Builder
	if err := s.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheusText(t, sb.String())
	if v := series[`wfservd_requests_total{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("requests series = %v, want 1; got series:\n%s", v, sb.String())
	}
	if v := series[`wfservd_plan_duration_seconds_count{endpoint="schedule"}`]; v != 1 {
		t.Fatalf("histogram count = %v, want 1", v)
	}
	// A fresh server must already expose a healthy schema: the
	// acceptance bar is ≥10 distinct series on a fresh server.
	if len(series) < 10 {
		t.Fatalf("only %d series exposed, want ≥ 10", len(series))
	}
	// Cumulative histograms: the +Inf bucket must equal the count.
	inf := series[`wfservd_plan_duration_seconds_bucket{endpoint="schedule",le="+Inf"}`]
	if count := series[`wfservd_plan_duration_seconds_count{endpoint="schedule"}`]; inf != count {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
	// Families render sorted by name.
	var names []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("families not sorted by name: %v", names)
	}
}

// TestMetricsEndpointHygiene scrapes a live server's GET /metrics and
// holds the exposition to the format contract: every family's HELP/TYPE
// lines precede its samples and every sample line ends at its value
// (parsePrometheusText fails otherwise), and the process gauges — uptime
// and goroutine count — are present and sane.
func TestMetricsEndpointHygiene(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	// Exercise a planning path first so a latency histogram has samples
	// in the exposition.
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
