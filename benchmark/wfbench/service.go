package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
)

// The service workload serves service.New(service.Config{}) with net/http
// on a loopback listener and drives it over loadConns keep-alive
// connections from this process. Set-up warms a hot set of /v1/schedule
// problems; the traffic is 80% hot-set schedule requests (cache hits, the
// reads), 15% fresh-seed schedule misses and 5% fresh-seed compare misses
// (the writes: each plans and inserts into the cache).
//
// The measured run is a closed loop, each connection sending its next
// request when the previous answer arrives. It gives ops_per_s, and each
// request's time from sending to answer gives the latency metrics, scaled
// by the speed index like every other timed metric. The machine stays
// busy, so the times follow its speed. An open loop at a fifth of the
// closed loop's rate left it mostly idle, and its latencies were set by
// wake-ups and neighbours' bursts instead: their p90 spread by a third
// between runs of the same code. The traced run still drives an open loop
// at openLoopRate, for the generator's lateness and the p99 diagnostic.
const (
	hotSetSize   = 64
	hotShare     = 0.80
	scheduleMiss = 0.15 // compare misses take the rest
	openLoopRate = 1000 // requests per second, in the traced run
	closedShare  = 0.4  // of the traced run's seconds, the rest being the open loop
	// replayEvery: every replayEvery-th miss is replayed on a fresh
	// in-process server and must answer the same bytes.
	replayEvery = 50
)

// loadConns is the number of connections, each driven by one goroutine:
// two, or one on a single-CPU machine.
var loadConns = min(2, runtime.NumCPU())

// serviceWorkflows are the registry workflows the schedule requests plan.
var serviceWorkflows = []string{"montage24", "mapreduce16x8", "CSTEM"}

// compareWorkflow is the workflow of the compare misses. A compare costs
// about ten schedule misses on CSTEM but fifty on montage24; over all three
// workflows, the miss latency's p90 would fall between the compare costs
// of two workflows and jump from run to run.
const compareWorkflow = "CSTEM"

// svcRequest is one request of the traffic mix.
type svcRequest struct {
	path string
	body []byte
	hot  int // index into the hot set; -1 for a miss
}

func (q svcRequest) miss() bool { return q.hot < 0 }

// traffic generates the request mix from the workload seed. Fresh seeds
// come from a shared counter above every hot-set seed, so a miss never
// repeats a problem.
type traffic struct {
	rng        *rand.Rand
	hot        []svcRequest
	fresh      *atomic.Uint64
	strategies []string
}

// freshSeedBase is where miss seeds start; hot-set seeds stay below it.
const freshSeedBase = 1 << 32

func scheduleBody(wf, strategy string, seed uint64) []byte {
	return fmt.Appendf(nil, `{"workflow_name":%q,"strategy":%q,"scenario":"Pareto","seed":%d}`, wf, strategy, seed)
}

func catalogNames() []string {
	var out []string
	for _, a := range sched.Catalog() {
		out = append(out, a.Name())
	}
	return out
}

// hotSet draws the hot set's distinct problems from the seed. Workflows
// and strategies are dealt round-robin, so that the cost of a hit, which
// depends on both, does not vary with the seed; only the Pareto seeds are
// drawn.
func hotSet(seed uint64) []svcRequest {
	rng := rand.New(rand.NewPCG(seed, 0x407))
	strategies := catalogNames()
	out := make([]svcRequest, hotSetSize)
	for i := range out {
		out[i] = svcRequest{path: "/v1/schedule", hot: i, body: scheduleBody(serviceWorkflows[i%len(serviceWorkflows)],
			strategies[i%len(strategies)], 1+rng.Uint64N(1<<20))}
	}
	return out
}

func newTraffic(seed uint64, stream uint64, hot []svcRequest, fresh *atomic.Uint64) *traffic {
	return &traffic{rng: rand.New(rand.NewPCG(seed, stream)), hot: hot, fresh: fresh, strategies: catalogNames()}
}

func (t *traffic) next() svcRequest {
	u := t.rng.Float64()
	switch {
	case u < hotShare:
		return t.hot[t.rng.IntN(len(t.hot))]
	case u < hotShare+scheduleMiss:
		return svcRequest{path: "/v1/schedule", hot: -1, body: scheduleBody(
			serviceWorkflows[t.rng.IntN(len(serviceWorkflows))],
			t.strategies[t.rng.IntN(len(t.strategies))], t.fresh.Add(1))}
	default:
		return svcRequest{path: "/v1/compare", hot: -1, body: fmt.Appendf(nil,
			`{"workflow_name":%q,"scenario":"Pareto","seed":%d}`, compareWorkflow, t.fresh.Add(1))}
	}
}

// loopback is an HTTP server on a loopback port and a client holding at
// most loadConns keep-alive connections to it.
type loopback struct {
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
	once   sync.Once
	err    error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	l.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadConns,
		MaxIdleConnsPerHost: loadConns,
		DisableCompression:  true,
	}}
	go func() { l.served <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for Serve to return. Calls after the
// first return the first call's error.
func (l *loopback) close() error {
	l.once.Do(func() {
		l.client.CloseIdleConnections()
		l.err = l.srv.Close()
		if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
			l.err = errors.Join(l.err, serr)
		}
	})
	return l.err
}

// target is the service under test on a loopback server.
type target struct {
	*loopback
	svc *service.Server
	// startedAt is the trace clock when the server started; flight record
	// times are seconds since then.
	startedAt float64
}

func startTarget() (*target, error) {
	t := &target{startedAt: clock(), svc: service.New(service.Config{})}
	var err error
	if t.loopback, err = serveLoopback(t.svc.Handler()); err != nil {
		t.svc.Close()
		return nil, err
	}
	return t, nil
}

// close stops the server, then drains the service's worker pool.
func (t *target) close() error {
	err := t.loopback.close()
	t.svc.Close()
	return err
}

// answer is one response as the client saw it.
type answer struct {
	status int
	cache  string
	body   []byte
}

// do sends one request; traceparent, when not empty, continues a trace.
func (t *target) do(q svcRequest, traceparent string) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, t.url+q.path, bytes.NewReader(q.body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, err
	}
	return answer{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, nil
}

// get fetches a diagnostic endpoint.
func (t *target) get(path string) ([]byte, error) {
	resp, err := t.client.Get(t.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// warm sends the hot set and returns the bodies the server answered.
func (t *target) warm(hot []svcRequest) ([][]byte, error) {
	out := make([][]byte, len(hot))
	for i, q := range hot {
		a, err := t.do(q, "")
		if err != nil {
			return nil, err
		}
		if a.status != http.StatusOK {
			return nil, fmt.Errorf("warming %s: status %d: %s", q.body, a.status, a.body)
		}
		out[i] = a.body
	}
	return out, nil
}

// checker verifies answers: a hot-set answer must be the bytes stored at
// warm-up, a miss must have missed the cache, and every replayEvery-th
// miss is kept for replay on a fresh server.
type checker struct {
	hotBodies [][]byte
	misses    atomic.Int64
	mu        sync.Mutex
	replays   []replay
}

type replay struct {
	q    svcRequest
	body []byte
}

func (c *checker) check(q svcRequest, a answer) error {
	if a.status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", q.path, q.body, a.status, a.body)
	}
	if !q.miss() {
		if !bytes.Equal(a.body, c.hotBodies[q.hot]) {
			return fmt.Errorf("hot request %s: body differs from the warm-up answer", q.body)
		}
		return nil
	}
	if a.cache != "MISS" {
		return fmt.Errorf("fresh request %s answered with X-Cache %q", q.body, a.cache)
	}
	if c.misses.Add(1)%replayEvery == 0 {
		c.mu.Lock()
		c.replays = append(c.replays, replay{q, a.body})
		c.mu.Unlock()
	}
	return nil
}

// verifyReplays replays the kept misses on a fresh in-process server.
func (c *checker) verifyReplays(r *report) {
	svc := service.New(service.Config{})
	defer svc.Close()
	h := svc.Handler()
	for _, rp := range c.replays {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rp.q.path, bytes.NewReader(rp.q.body)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), rp.body) {
			r.fail(1, "replay of %s %s on a fresh server: status %d, body differs", rp.q.path, rp.q.body, rec.Code)
		}
	}
	r.note("service: %d misses replayed on a fresh server", len(c.replays))
}

// loadStats is what one load phase measured.
type loadStats struct {
	ok, failed int
	wall       float64
	segments   []unit    // each segment's wall time and answers
	lat        []float64 // seconds from due time (the send, in a closed loop) to answer
	missLat    []float64
	hitSent    []float64 // seconds, open loop hits: from sending to answer
	lateness   []float64 // seconds the generator sent after the due time
}

func (s *loadStats) merge(o loadStats) {
	s.wall += o.wall
	s.segments = append(s.segments, o.segments...)
	s.ok += o.ok
	s.failed += o.failed
	s.lat = append(s.lat, o.lat...)
	s.missLat = append(s.missLat, o.missLat...)
	s.hitSent = append(s.hitSent, o.hitSent...)
	s.lateness = append(s.lateness, o.lateness...)
}

// load drives the target from loadConns goroutines for secs seconds: a
// closed loop when rate is 0, else an open loop of rate requests per
// second shared by the goroutines. With a trace, every request gets a
// client span whose traceparent the server continues.
func load(tg *target, c *checker, gens []*traffic, rate float64, secs float64, r *report, tr *obs.Trace) loadStats {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total loadStats
		next  atomic.Int64
	)
	start := time.Now()
	end := start.Add(duration(secs))
	for g := 0; g < loadConns; g++ {
		wg.Add(1)
		go func(gen *traffic) {
			defer wg.Done()
			var st loadStats
			var fails []string
			for {
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(float64(next.Add(1)-1) / rate * float64(time.Second)))
					if !due.Before(end) {
						break
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else if !time.Now().Before(end) {
					break
				}
				q := gen.next()
				sent := time.Now()
				if rate == 0 {
					due = sent
				} else {
					st.lateness = append(st.lateness, sent.Sub(due).Seconds())
				}
				name := "client.hit"
				if q.miss() {
					name = "client.miss"
				}
				sp := tr.StartSpan(name, obs.SpanID{})
				tp := ""
				if tr != nil {
					tp = obs.Traceparent(tr.ID(), sp.ID())
				}
				a, err := tg.do(q, tp)
				done := time.Now()
				sp.End()
				if err == nil {
					err = c.check(q, a)
				}
				if err != nil {
					st.failed++
					fails = append(fails, err.Error())
				} else {
					st.ok++
				}
				lat := done.Sub(due).Seconds()
				st.lat = append(st.lat, lat)
				if q.miss() {
					st.missLat = append(st.missLat, lat)
				} else if rate > 0 {
					st.hitSent = append(st.hitSent, done.Sub(sent).Seconds())
				}
			}
			mu.Lock()
			total.merge(st)
			for _, f := range fails {
				r.fail(1, "%s", f)
			}
			mu.Unlock()
		}(gens[g])
	}
	wg.Wait()
	total.wall = time.Since(start).Seconds()
	r.attempted += total.ok + total.failed
	return total
}

// closedLoop runs the closed loop in segments of refEvery seconds, up to
// secs in all, with a speed checkpoint after each. It returns the phase's
// stats and the latencies of every request and of the misses alone, each a
// unit tagged with its segment's speed mark.
func closedLoop(tg *target, c *checker, gens []*traffic, secs float64, r *report, sp *speed) (total loadStats, lat, missLat []unit) {
	units := func(out []unit, secs []float64, mark int) []unit {
		for _, s := range secs {
			out = append(out, unit{secs: s, ops: 1, mark: mark})
		}
		return out
	}
	for left := secs; left > 0; left -= refEvery.Seconds() {
		mark := sp.mark()
		seg := load(tg, c, gens, 0, min(left, refEvery.Seconds()), r, nil)
		seg.segments = []unit{{secs: seg.wall, ops: seg.ok, mark: mark}}
		lat, missLat = units(lat, seg.lat, mark), units(missLat, seg.missLat, mark)
		total.merge(seg)
		sp.checkpoint()
	}
	return total, lat, missLat
}

// serviceSetup starts a server, warms the hot set, and returns the target
// with the checker holding the warm-up bodies.
func serviceSetup(hot []svcRequest) (*target, *checker, error) {
	tg, err := startTarget()
	if err != nil {
		return nil, nil, err
	}
	bodies, err := tg.warm(hot)
	if err != nil {
		return nil, nil, errors.Join(err, tg.close())
	}
	return tg, &checker{hotBodies: bodies}, nil
}

func newGens(seed uint64, hot []svcRequest) []*traffic {
	fresh := new(atomic.Uint64)
	fresh.Store(freshSeedBase)
	gens := make([]*traffic, loadConns)
	for g := range gens {
		gens[g] = newTraffic(seed, uint64(g+1), hot, fresh)
	}
	return gens
}

func runService(o *options, r *report, sp *speed) error {
	var (
		tg *target
		c  *checker
	)
	hot := hotSet(o.seed)
	setups, err := repeatSetup(sp, func() error {
		if tg != nil {
			if err := tg.close(); err != nil {
				return err
			}
		}
		var err error
		tg, c, err = serviceSetup(hot)
		return err
	})
	if err != nil {
		return err
	}
	defer tg.close()
	hd := newDigest()
	for _, b := range c.hotBodies {
		hd.bytes(b)
	}
	r.digest("service/hotset", hd.hex(), hotSetSize)

	gens := newGens(o.seed, hot)
	heap := startHeapSampler()
	closed, lat, missLat := closedLoop(tg, c, gens, o.seconds, r, sp)
	peak := heap.end()
	if err := tg.close(); err != nil {
		return err
	}
	c.verifyReplays(r)

	r.note("service: closed loop %d ok, %d failed in %.3f s (%d misses)",
		closed.ok, closed.failed, closed.wall, len(closed.missLat))
	return r.addEndToEnd(e2e{setups: setups, work: closed.segments, lat: lat, missLat: missLat, speed: sp, peakLive: peak})
}

// flightRecord is one line of GET /debug/flight.
type flightRecord struct {
	Route   string `json:"route"`
	Outcome string `json:"outcome"`
	Spans   []struct {
		ID     string  `json:"id"`
		Parent string  `json:"parent"`
		Name   string  `json:"name"`
		Start  float64 `json:"start_s"`
		End    float64 `json:"end_s"`
	} `json:"spans"`
}

// flightRounds × the flight recorder's default 256 records are read in
// the traced run, each after that many requests.
const (
	flightRounds = 4
	flightSize   = 256
	// flightTracks request tracks of each round go to the trace file.
	flightTracks = 16
)

// traceService is the service's traced per-layer run.
func traceService(o *options, t *obs.Trace, r *report) (sets []obs.SpanSet, err error) {
	secs := o.seconds / traceScale
	hot := hotSet(o.seed)
	tg, c, err := serviceSetup(hot)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := tg.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	gens := newGens(o.seed, hot)

	// Closed-loop segments untraced and traced in alternation, then the
	// open loop traced.
	p := alternate(secs*closedShare, t, func(_ int, t *obs.Trace) (float64, int) {
		st := load(tg, c, gens, 0, secs*closedShare/4, r, t)
		return st.wall, st.ok
	})
	open := load(tg, c, gens, openLoopRate, secs*(1-closedShare), r, t)

	// Stage times from the flight recorder, one round at a time so that
	// no record is overwritten before it is read.
	stages := map[string][]float64{}
	for round := 0; round < flightRounds; round++ {
		gen := gens[round%len(gens)]
		for i := 0; i < flightSize; i++ {
			q := gen.next()
			a, err := tg.do(q, "")
			if err == nil {
				err = c.check(q, a)
			}
			r.attempted++
			if err != nil {
				r.fail(1, "%v", err)
			}
		}
		body, err := tg.get("/debug/flight")
		if err != nil {
			return nil, err
		}
		recs, err := flightStages(body, stages)
		if err != nil {
			return nil, err
		}
		sets = append(sets, flightSets(recs[:min(len(recs), flightTracks)], tg.startedAt)...)
	}
	var snap service.MetricsSnapshot
	body, err := tg.get("/metrics?format=json")
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}

	hitIn, missIn, allocHit, allocMiss := probeHandler(tg.svc, hot, c.hotBodies, gens[0], r)
	decode, resolve := probeDecodeResolve(hot, t, r)

	hitLoop := quantile(sortedCopy(open.hitSent), 0.5)
	lat, late := sortedCopy(open.lat), sortedCopy(open.lateness)
	p50 := func(name string) float64 { return quantile(sortedCopy(stages[name]), 0.5) * 1e6 }
	r.add("service.decode_us", decode*1e6, "us")
	r.add("service.resolve_us", resolve*1e6, "us")
	r.add("service.pre_lookup_us", p50("pre_lookup"), "us")
	r.add("service.lookup_us", p50("lookup"), "us")
	r.add("service.queue_wait_us", p50("queue_wait"), "us")
	r.add("service.plan_us", p50("plan"), "us")
	r.add("service.post_plan_us", p50("post_plan"), "us")
	r.add("service.handler_hit_us", hitIn*1e6, "us")
	r.add("service.handler_miss_us", missIn*1e6, "us")
	r.add("service.net_overhead_us", (hitLoop-hitIn)*1e6, "us")
	r.add("service.allocs_per_hit", allocHit, "count")
	r.add("service.allocs_per_miss", allocMiss, "count")
	r.add("service.cache_hit_frac", snap.CacheHitRatio, "fraction")
	r.add("service.rejected_frac", float64(snap.RejectedTotal)/float64(max(snap.RequestsTotal, 1)), "fraction")
	r.add("service.latency_p99_ms", quantile(lat, 0.99)*1e3, "ms")
	r.add("service.gen_lateness_ms_p99", quantile(late, 0.99)*1e3, "ms")
	r.add("service.gc_cpu_frac", p.gcFrac, "fraction")
	r.add("service.trace_overhead_frac", p.overhead(), "fraction")
	printLayers(r, "service", layerStats(t.Spans()))
	return sets, nil
}

// flightStages parses a /debug/flight body and appends each record's stage
// times, in seconds, to stages: pre_lookup (root start to cache_lookup
// start: decode, resolve and key), lookup, and for misses queue_wait,
// plan and post_plan (plan end to root end: marshal, cache put, write).
func flightStages(body []byte, stages map[string][]float64) ([]flightRecord, error) {
	var recs []flightRecord
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var rec flightRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("parsing /debug/flight: %w", err)
		}
		if rec.Route != "schedule" && rec.Route != "compare" {
			continue
		}
		recs = append(recs, rec)
		byName := map[string]int{}
		for i, sp := range rec.Spans {
			if _, ok := byName[sp.Name]; !ok {
				byName[sp.Name] = i
			}
		}
		look, okLook := byName["cache_lookup"]
		if len(rec.Spans) == 0 || !okLook {
			continue
		}
		root, lk := rec.Spans[0], rec.Spans[look]
		stages["pre_lookup"] = append(stages["pre_lookup"], lk.Start-root.Start)
		stages["lookup"] = append(stages["lookup"], lk.End-lk.Start)
		wait, okWait := byName["queue_wait"]
		plan, okPlan := byName["plan"]
		if okWait && okPlan {
			w, p := rec.Spans[wait], rec.Spans[plan]
			stages["queue_wait"] = append(stages["queue_wait"], w.End-w.Start)
			stages["plan"] = append(stages["plan"], p.End-p.Start)
			stages["post_plan"] = append(stages["post_plan"], root.End-p.End)
		}
	}
	return recs, nil
}

// flightSets turns flight records into Chrome-trace request tracks on the
// benchmark's clock; the server's clock started at offset.
func flightSets(recs []flightRecord, offset float64) []obs.SpanSet {
	var out []obs.SpanSet
	for i, rec := range recs {
		set := obs.SpanSet{Name: fmt.Sprintf("server %s %s #%d", rec.Route, rec.Outcome, i)}
		for _, sp := range rec.Spans {
			set.Spans = append(set.Spans, obs.Span{ID: spanID(sp.ID), Parent: spanID(sp.Parent),
				Name: sp.Name, Start: sp.Start + offset, End: sp.End + offset})
		}
		out = append(out, set)
	}
	return out
}

// probeHandler times the handler in process, without the network: hot-set
// hits and fresh misses through Handler().ServeHTTP, with the allocations
// each makes. Requests and recorders are built before measuring.
func probeHandler(svc *service.Server, hot []svcRequest, bodies [][]byte, gen *traffic,
	r *report) (hitS, missS, allocsHit, allocsMiss float64) {
	h := svc.Handler()
	measure := func(qs []svcRequest) (p50, allocs float64) {
		reqs := make([]*http.Request, len(qs))
		recs := make([]*httptest.ResponseRecorder, len(qs))
		for i, q := range qs {
			reqs[i] = httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
			recs[i] = httptest.NewRecorder()
		}
		durs := make([]float64, len(qs))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range qs {
			start := time.Now()
			h.ServeHTTP(recs[i], reqs[i])
			durs[i] = time.Since(start).Seconds()
		}
		runtime.ReadMemStats(&m1)
		for i, q := range qs {
			r.attempted++
			switch {
			case recs[i].Code != http.StatusOK:
				r.fail(1, "in-process %s: status %d", q.body, recs[i].Code)
			case !q.miss() && !bytes.Equal(recs[i].Body.Bytes(), bodies[q.hot]):
				r.fail(1, "in-process hit %s: body differs from the warm-up answer", q.body)
			}
		}
		return quantile(sortedCopy(durs), 0.5), float64(m1.Mallocs-m0.Mallocs) / float64(len(qs))
	}
	hits := make([]svcRequest, 0, 20*hotSetSize)
	for i := 0; i < cap(hits); i++ {
		hits = append(hits, hot[i%len(hot)])
	}
	misses := make([]svcRequest, 0, 200)
	for len(misses) < cap(misses) {
		if q := gen.next(); q.miss() && q.path == "/v1/schedule" {
			misses = append(misses, q)
		}
	}
	hitS, allocsHit = measure(hits)
	missS, allocsMiss = measure(misses)
	return hitS, missS, allocsHit, allocsMiss
}

// probeDecodeResolve times the first two stages of a schedule request from
// outside: the strict JSON decode into service.ScheduleRequest, and the
// registry lookups that resolve its names. It returns each one's median.
func probeDecodeResolve(hot []svcRequest, t *obs.Trace, r *report) (decodeS, resolveS float64) {
	var dec, res []float64
	for i := 0; i < 20*hotSetSize; i++ {
		q := hot[i%len(hot)]
		sp := t.StartSpan("json.Decode ScheduleRequest", obs.SpanID{})
		start := time.Now()
		var req service.ScheduleRequest
		d := json.NewDecoder(bytes.NewReader(q.body))
		d.DisallowUnknownFields()
		err := d.Decode(&req)
		dec = append(dec, time.Since(start).Seconds())
		sp.End()
		r.attempted++
		if err != nil {
			r.fail(1, "decoding %s: %v", q.body, err)
			continue
		}
		sp = t.StartSpan("resolve", obs.SpanID{})
		start = time.Now()
		err = resolveNames(req.WorkflowName, req.Strategy, req.Scenario)
		res = append(res, time.Since(start).Seconds())
		sp.End()
		if err != nil {
			r.fail(1, "resolving %s: %v", q.body, err)
		}
	}
	return quantile(sortedCopy(dec), 0.5), quantile(sortedCopy(res), 0.5)
}
