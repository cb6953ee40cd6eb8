package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSIGTERMDrainsInflight boots the daemon on an ephemeral port, parks
// a slow planning request in flight, delivers a real SIGTERM to the
// process, and requires (1) the in-flight request to complete with 200
// and (2) run() to return cleanly — the end-to-end graceful-drain
// contract.
func TestSIGTERMDrainsInflight(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", service.Config{Workers: 2, QueueDepth: 8}, 30*time.Second, false, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}
	base := "http://" + addr

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// A big Montage keeps the planner busy long enough for the signal to
	// land mid-request.
	slow := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, err := http.Post(base+"/v1/schedule", "application/json",
			strings.NewReader(`{"workflow_name":"montage80","strategy":"GAIN","scenario":"Pareto","seed":3}`))
		if err != nil {
			slow <- struct {
				code int
				body []byte
			}{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slow <- struct {
			code int
			body []byte
		}{resp.StatusCode, b}
	}()

	time.Sleep(50 * time.Millisecond) // let the request reach the pool
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}

	select {
	case r := <-slow:
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request died during drain: status %d, body %s", r.code, r.body)
		}
		var out service.ScheduleResponse
		if err := json.Unmarshal(r.body, &out); err != nil || out.Makespan <= 0 {
			t.Fatalf("drained response malformed: %v (%s)", err, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}

	// The listener is gone: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still accepting connections after drain")
	}
}

// TestRunListenError pins the failure path: a bad address errors out
// instead of hanging.
func TestRunListenError(t *testing.T) {
	err := run(context.Background(), "256.256.256.256:1", service.Config{}, time.Second, false, nil)
	if err == nil {
		t.Fatal("bogus listen address did not error")
	}
}

// TestPprofAndExpvarMounts boots the daemon with -pprof semantics on and
// checks the debug surface: the pprof index answers, /debug/vars serves
// the Go runtime's own expvar variables and no copy of the service's
// metrics (those live at /metrics), and the service's own endpoints still
// resolve through the fallback mux.
func TestPprofAndExpvarMounts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "127.0.0.1:0", service.Config{Workers: 1, QueueDepth: 4}, time.Second, true, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}
	base := "http://" + addr

	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		// Match keys, not substrings: the runtime's "cmdline" var names
		// the test binary, wfservd.test.
		if path == "/debug/vars" && (!strings.Contains(string(b), `"memstats":`) ||
			strings.Contains(string(b), `"wfservd":`)) {
			t.Fatalf("/debug/vars wants the runtime's vars and no wfservd key: %s", b)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
}
