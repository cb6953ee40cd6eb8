package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStress fires well over 100 concurrent requests through
// the pool and checks the service stays consistent: every response is one
// of the defined statuses, and the admission/cache counters add up
// exactly. Run under -race this doubles as the data-race proof for the
// pool, cache, and metrics paths.
func TestConcurrentStress(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8, CacheBytes: 16 << 20})

	const n = 160
	workflows := []string{"Sequential", "sequential6", "mapreduce4x2", "Fig1"}
	strategies := []string{"GAIN", "CPA-Eager", "AllParExceed-m", "OneVMperTask-s"}

	var ok200, rejected429, unavailable503 atomic.Uint64
	var wg sync.WaitGroup
	client := ts.Client()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workflow_name":%q,"strategy":%q,"scenario":"Pareto","seed":%d}`,
				workflows[i%len(workflows)], strategies[i%len(strategies)], i%8)
			resp, b := postStress(t, client, ts.URL+"/v1/schedule", body)
			switch resp {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				rejected429.Add(1)
			case http.StatusServiceUnavailable:
				unavailable503.Add(1)
			default:
				t.Errorf("request %d: unexpected status %d (body %s)", i, resp, b)
			}
		}(i)
	}
	wg.Wait()

	if ok200.Load() == 0 {
		t.Fatal("no request succeeded under load")
	}
	m := s.Metrics()
	if m.ScheduleRequests != n {
		t.Fatalf("schedule_requests = %d, want %d", m.ScheduleRequests, n)
	}
	// Every valid request either hit or missed the cache, exactly once.
	if m.CacheHits+m.CacheMisses != n {
		t.Fatalf("hits %d + misses %d != %d requests", m.CacheHits, m.CacheMisses, n)
	}
	if m.RejectedTotal != rejected429.Load() {
		t.Fatalf("rejected_total = %d, clients saw %d rejections", m.RejectedTotal, rejected429.Load())
	}
	if got := ok200.Load() + rejected429.Load() + unavailable503.Load(); got != n {
		t.Fatalf("response accounting: %d != %d", got, n)
	}
	if m.QueueDepth != 0 || m.Inflight != 0 {
		t.Fatalf("pool not quiescent after the storm: %+v", m)
	}

	// The storm over, a repeated submission is served from cache.
	resp, _ := postJSON(t, ts.URL+"/v1/schedule",
		`{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Pareto","seed":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm request: %d", resp.StatusCode)
	}
}

// postStress is postJSON without t.Fatal (goroutine-safe reporting).
func postStress(t *testing.T, client *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST: %v", err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}
