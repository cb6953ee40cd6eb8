package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The traced per-layer run reruns every workload at 1/traceScale of the
// measured seconds. It records spans in memory around calls into the
// layers' public functions, made from the benchmark's own code (the
// program is not instrumented for it), and reads the stage spans the
// service already records at GET /debug/flight. Each workload's units run
// untraced and traced in alternation, and the difference is the tracing
// overhead. At exit the spans are written as one Chrome trace,
// which Perfetto loads.
//
// The run covers every layer whatever -workload names, so that each traced
// run reports every per-layer metric.
const traceScale = 10

// traceFile is the Chrome trace the traced run writes in -trace-dir.
const traceFile = "wfbench.trace.json"

// traceSpanLimit caps the spans of one workload written to the trace file;
// the metrics use every span.
const traceSpanLimit = 20_000

// clock reads seconds since the process started: the clock of every span
// the benchmark records.
func clock() float64 { return time.Since(processStart).Seconds() }

func newTrace(name string) *obs.Trace {
	return obs.NewTrace(obs.DeriveTraceID("wfbench", name), obs.SpanID{}, clock)
}

func runTrace(o *options, r *report) error {
	var sets, flight []obs.SpanSet
	for _, w := range workloadNames {
		t := newTrace(w)
		var err error
		switch w {
		case "sweep":
			err = traceSweep(o, t, r)
		case "sla":
			err = traceSLA(o, t, r)
		case "online":
			err = traceOnline(o, t, r)
		case "service":
			flight, err = traceService(o, t, r)
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", w, err)
		}
		sets = append(sets, tracks(w, t.Spans(), traceSpanLimit)...)
	}
	sets = append(sets, flight...)
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, traceFile)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTraceSpans(f, nil, nil, sets)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	r.note("trace: %d tracks written to %s", len(sets), path)
	return nil
}

// paired is what alternate measured.
type paired struct {
	plainS, tracedS     float64 // seconds the untraced and the traced units took
	plainOps, tracedOps int     // operations they verified
	// mallocs and bytes are the untraced units' heap allocations; gcFrac
	// is the collector's share of CPU over all units, since a collection
	// ends in whichever unit happens to be running.
	mallocs, bytes uint64
	gcFrac         float64
}

// overhead is the share of throughput tracing costs.
func (p paired) overhead() float64 {
	return 1 - (float64(p.tracedOps)/p.tracedS)/(float64(p.plainOps)/p.plainS)
}

// alternate runs unit i untraced and then traced, for i = 0, 1, ..., until
// the pairs have taken 2×secs, at least one pair. Alternating keeps the
// machine's drift out of the comparison. unit returns the seconds it took
// and the operations it verified.
func alternate(secs float64, t *obs.Trace, unit func(i int, t *obs.Trace) (float64, int)) paired {
	var p paired
	start := readUsage()
	for i := 0; i == 0 || p.plainS+p.tracedS < 2*secs; i++ {
		u0 := readUsage()
		d, n := unit(i, nil)
		u := readUsage().since(u0)
		p.mallocs += u.mallocs
		p.bytes += u.bytes
		p.plainS += d
		p.plainOps += n
		d, n = unit(i, t)
		p.tracedS += d
		p.tracedOps += n
	}
	p.gcFrac = readUsage().since(start).gcFrac
	return p
}

// layer aggregates the spans of one layer.
type layer struct {
	durs  []float64 // seconds per call
	total float64   // seconds over all calls
	self  float64   // total minus the time child spans cover
}

// totalSeconds returns the seconds over all calls, 0 for a layer never
// called.
func (l *layer) totalSeconds() float64 {
	if l == nil {
		return 0
	}
	return l.total
}

// p50 returns the median call in seconds, 0 for a layer never called.
func (l *layer) p50() float64 {
	if l == nil {
		return 0
	}
	return quantile(sortedCopy(l.durs), 0.5)
}

// layerOf names the layer of a span: core's "cell <wf>/<sc>/<strategy>"
// and sla's "candidate <strategy>@<market>" spans group by their first
// word, every other span by its full name.
func layerOf(name string) string {
	for _, prefix := range []string{"cell ", "candidate "} {
		if strings.HasPrefix(name, prefix) {
			return strings.TrimSpace(prefix)
		}
	}
	return name
}

// layerStats groups spans by layer. A span's self time is its duration
// minus the union of its children's intervals, so concurrent children
// (the sweep's cells on two workers) are not counted twice.
func layerStats(spans []obs.Span) map[string]*layer {
	children := map[obs.SpanID][]obs.Span{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	out := map[string]*layer{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		l := out[layerOf(sp.Name)]
		if l == nil {
			l = &layer{}
			out[layerOf(sp.Name)] = l
		}
		l.durs = append(l.durs, d)
		l.total += d
		l.self += d - covered(sp, children[sp.ID])
	}
	return out
}

// covered returns how much of the parent's interval its children cover.
func covered(parent obs.Span, kids []obs.Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	sum, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// printLayers prints each layer's calls, total, self and median time.
func printLayers(r *report, workload string, layers map[string]*layer) {
	for _, name := range sortedKeys(layers) {
		l := layers[name]
		r.note("%s layer %-42s calls %8d  total %10.3f ms  self %10.3f ms  p50 %10.2f us",
			workload, name, len(l.durs), l.total*1e3, l.self*1e3, l.p50()*1e6)
	}
}

// tracks lays out spans as Chrome-trace tracks on which spans only nest,
// never partly overlap, which is how Perfetto draws one track: each span
// goes to the first track whose open spans it fits inside or follows.
// Only the first limit spans by start time are laid out.
func tracks(name string, spans []obs.Span, limit int) []obs.SpanSet {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	if len(spans) > limit {
		spans = spans[:limit]
	}
	var sets []obs.SpanSet
	var open [][]float64 // per track, the ends of its open spans
	for _, sp := range spans {
		placed := false
		for k := range open {
			stack := open[k]
			for len(stack) > 0 && stack[len(stack)-1] <= sp.Start {
				stack = stack[:len(stack)-1]
			}
			open[k] = stack
			if len(stack) == 0 || sp.End <= stack[len(stack)-1] {
				open[k] = append(stack, sp.End)
				sets[k].Spans = append(sets[k].Spans, sp)
				placed = true
				break
			}
		}
		if !placed {
			open = append(open, []float64{sp.End})
			sets = append(sets, obs.SpanSet{Name: fmt.Sprintf("%s %d", name, len(sets)), Spans: []obs.Span{sp}})
		}
	}
	return sets
}

// spanID parses a hex span ID; malformed input gives the zero ID.
func spanID(s string) obs.SpanID {
	var id obs.SpanID
	if b, err := hex.DecodeString(s); err == nil && len(b) == len(id) {
		copy(id[:], b)
	}
	return id
}

// resolveNames resolves a schedule request's names the way the service
// does: the workflow, the strategy and the scenario.
func resolveNames(workflow, strategy, scenario string) error {
	if _, err := core.NamedWorkflow(workflow); err != nil {
		return err
	}
	if _, err := core.StrategyByName(strategy); err != nil {
		return err
	}
	_, err := workload.ParseScenario(scenario)
	return err
}
