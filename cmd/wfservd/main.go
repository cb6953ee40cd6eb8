// Command wfservd is the scheduling-as-a-service daemon: a long-running
// HTTP/JSON server answering workflow-planning requests with the
// repository's strategy catalog (see internal/service).
//
// Usage:
//
//	wfservd -addr :8080
//	wfservd -addr 127.0.0.1:9090 -workers 8 -queue 64 -cache 8192
//	wfservd -addr :8080 -pprof
//
// Endpoints:
//
//	POST /v1/schedule   plan one workflow with one strategy
//	POST /v1/compare    run all 19 catalog strategies on one workflow
//	GET  /v1/catalog    valid strategy/workflow/scenario/region names
//	GET  /metrics       Prometheus text exposition (?format=json for the
//	                    legacy snapshot document)
//	GET  /healthz       200 serving / 503 draining
//	GET  /debug/flight  flight recorder: the last -flight-size requests as
//	                    NDJSON (?format=trace for a Chrome-trace document)
//	GET  /debug/pprof/  runtime profiles     (only with -pprof)
//	GET  /debug/vars    the Go runtime's expvar variables (only with -pprof)
//
// Requests are logged through log/slog with per-request IDs (inbound
// X-Request-ID is honored). On SIGTERM or SIGINT the daemon stops
// accepting connections, flips /healthz to 503, drains in-flight requests
// (bounded by -drain), and logs the drain outcome — how many requests
// completed during the drain and how many were aborted by the deadline —
// before exiting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "submission queue depth (0 = 4x workers)")
		cacheN  = flag.Int("cache", 0, "result cache capacity in entries (0 = 4096)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request planning timeout")
		drain   = flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
		pprofOn = flag.Bool("pprof", false, "mount /debug/pprof/* and /debug/vars")
		quiet   = flag.Bool("quiet", false, "suppress per-request logging")
		flightN = flag.Int("flight-size", 0, "flight-recorder capacity in requests (0 = 256)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheN,
		RequestTimeout: *timeout,
		FlightSize:     *flightN,
	}
	if !*quiet {
		cfg.Logger = logger
	}
	if err := run(ctx, *addr, cfg, *drain, *pprofOn, nil); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (the signal), then drains and
// returns. If ready is non-nil it receives the bound listen address once
// the daemon is accepting connections (used by tests binding port 0).
func run(ctx context.Context, addr string, cfg service.Config, drain time.Duration,
	pprofOn bool, ready chan<- string) error {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	svc := service.New(cfg)
	defer svc.Close()

	handler := svc.Handler()
	if pprofOn {
		// Explicit mounts rather than the pprof package's init side
		// effects on http.DefaultServeMux: the service's own mux stays in
		// charge of everything outside /debug/.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	filled := cfg.Fill()
	logger.Info("serving", "addr", ln.Addr().String(),
		"workers", filled.Workers, "queue", filled.QueueDepth,
		"cache", filled.CacheSize, "pprof", pprofOn)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop routing (healthz 503), stop accepting, finish
	// in-flight requests, then stop the worker pool (deferred Close).
	logger.Info("signal received, draining", "deadline", drain.String())
	svc.StartDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutErr := httpSrv.Shutdown(drainCtx)
	completed, aborted := svc.DrainCompleted(), svc.Active()
	if shutErr != nil {
		// The deadline expired with requests still in flight: report the
		// casualties, then surface the error.
		logger.Warn("drain deadline exceeded",
			"completed", completed, "aborted", aborted)
		return fmt.Errorf("drain: %w", shutErr)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained", "completed", completed, "aborted", aborted)
	return nil
}
