package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestPanickingPlanKeepsItsWorker drives a one-worker server through a
// plan that panics: the request is answered 500 without the panic's
// value, wfservd_panics_total counts it, and its flight record has the
// outcome "panic" and a "panic" span with the value and the stack. The
// same worker then serves a normal request, and Close returns.
func TestPanickingPlanKeepsItsWorker(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.mux.HandleFunc("/test/panic", func(w http.ResponseWriter, r *http.Request) {
		s.runCached(w, r, "schedule", spec.Key{1}, func(context.Context) (any, error) {
			panic("planner bug")
		})
	})

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/test/panic", nil))
	if w.Code != http.StatusInternalServerError || strings.Contains(w.Body.String(), "planner bug") {
		t.Fatalf("panicking plan: status %d, body %s", w.Code, w.Body)
	}
	if got := s.met.panics.Value(); got != 1 {
		t.Errorf("wfservd_panics_total = %v, want 1", got)
	}
	recs := s.flight.Records()
	rec := recs[len(recs)-1]
	if rec.Status != http.StatusInternalServerError || rec.Outcome != "panic" {
		t.Errorf("flight record status %d outcome %q, want 500 panic", rec.Status, rec.Outcome)
	}
	if v := spanAttr(rec.Spans, "panic", "value"); v != "planner bug" {
		t.Errorf("panic span value %q", v)
	}
	if st := spanAttr(rec.Spans, "panic", "stack"); !strings.Contains(st, "TestPanickingPlanKeepsItsWorker") {
		t.Errorf("panic span stack does not name the panicking function:\n%s", st)
	}

	const body = `{"workflow_name":"Sequential","strategy":"GAIN","scenario":"Best case"}`
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, body %s", w.Code, w.Body)
	}
	recs = s.flight.Records()
	if rec := recs[len(recs)-1]; rec.Outcome != "ok" {
		t.Errorf("request after the panic: outcome %q", rec.Outcome)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}
