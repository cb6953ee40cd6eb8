// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the hot paths and ablations of the design choices
// DESIGN.md calls out. Each Benchmark{Figure,Table}* target performs the
// complete computation behind the corresponding artifact; run
//
//	go test -bench=. -benchmem
//
// to both time them and (via -v logging on -benchtime=1x) inspect the
// regenerated content.
package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dax"
	"repro/internal/eventq"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/market"
	"repro/internal/ndwf"
	"repro/internal/online"
	"repro/internal/provision"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sla"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workflows"
	"repro/internal/workload"
)

// sweepOnce caches the paper sweep across benchmarks that only analyze it.
var cachedSweep *core.Sweep

func paperSweep(b *testing.B) *core.Sweep {
	b.Helper()
	if cachedSweep == nil {
		s, err := core.Run(core.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		cachedSweep = s
	}
	return cachedSweep
}

// BenchmarkFigure1Provisioning regenerates Fig. 1: the five provisioning
// policies scheduling the CSTEM sub-workflow, rendered as Gantt charts.
func BenchmarkFigure1Provisioning(b *testing.B) {
	wf := workflows.Fig1SubWorkflow()
	for i := 0; i < b.N; i++ {
		for _, kind := range provision.Kinds() {
			var alg sched.Algorithm
			switch kind {
			case provision.AllParExceed, provision.AllParNotExceed:
				alg = sched.NewAllPar(kind, cloud.Small)
			default:
				alg = sched.NewHEFT(kind, cloud.Small)
			}
			s, err := alg.Schedule(wf, sched.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			_ = trace.Gantt(s, 90)
		}
	}
}

// BenchmarkFigure3ParetoCDF regenerates Fig. 3: sampling the Pareto
// execution-time distribution and plotting its CDF.
func BenchmarkFigure3ParetoCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Figure3(42, 100000)
	}
}

// BenchmarkFigure4GainLoss regenerates Fig. 4: for each workflow pane, the
// 19-strategy gain/loss scatter under the Pareto scenario.
func BenchmarkFigure4GainLoss(b *testing.B) {
	for _, wf := range workflows.PaperNames() {
		b.Run(wf, func(b *testing.B) {
			structural := workflows.Paper()[wf]
			for i := 0; i < b.N; i++ {
				s, err := core.Run(core.Config{
					Seed:          42,
					Workflows:     map[string]*dag.Workflow{wf: structural},
					WorkflowOrder: []string{wf},
					Scenarios:     []workload.Scenario{workload.Pareto},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = report.Figure4(s, wf)
			}
		})
	}
}

// BenchmarkFigure5IdleTime regenerates Fig. 5: the idle-time bars per
// workflow pane.
func BenchmarkFigure5IdleTime(b *testing.B) {
	for _, wf := range workflows.PaperNames() {
		b.Run(wf, func(b *testing.B) {
			structural := workflows.Paper()[wf]
			for i := 0; i < b.N; i++ {
				s, err := core.Run(core.Config{
					Seed:          42,
					Workflows:     map[string]*dag.Workflow{wf: structural},
					WorkflowOrder: []string{wf},
					Scenarios:     []workload.Scenario{workload.Pareto},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = report.Figure5(s, wf)
			}
		})
	}
}

// BenchmarkTable1Policies regenerates Table I (the static policy pairing).
func BenchmarkTable1Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Table1()
	}
}

// BenchmarkTable2Prices regenerates Table II from the platform model.
func BenchmarkTable2Prices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Table2()
	}
}

// BenchmarkTable3Classification regenerates Table III: the full sweep plus
// the gain/savings classification with equal-outcome grouping.
func BenchmarkTable3Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.Run(core.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		_ = report.Table3(s)
	}
}

// BenchmarkTable4Fluctuation regenerates Table IV: the AllPar[Not]Exceed
// loss intervals and stable-gain summary.
func BenchmarkTable4Fluctuation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.Run(core.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		_ = report.Table4(s)
	}
}

// BenchmarkTable5Recommendations regenerates Table V: the per-goal
// strategy recommendations.
func BenchmarkTable5Recommendations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.Run(core.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report.Table5(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullParanoidSweep times the complete grid with validation and
// simulator cross-checking enabled — the most expensive end-to-end path.
func BenchmarkFullParanoidSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{Seed: 42, Paranoid: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSVExport times dumping the full grid as CSV.
func BenchmarkCSVExport(b *testing.B) {
	s := paperSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := report.WriteSweepCSV(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkHEFTRanks times upward-rank computation on the Montage DAG.
func BenchmarkHEFTRanks(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	m := dag.CostModel{Exec: func(t dag.Task) float64 { return t.Work }, Comm: func(dag.Edge) float64 { return 0 }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wf.UpwardRanks(m)
	}
}

// BenchmarkScheduleMontage times one HEFT + StartParNotExceed schedule of
// the 24-task Montage.
func BenchmarkScheduleMontage(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	alg := sched.NewHEFT(provision.StartParNotExceed, cloud.Small)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Schedule(wf, sched.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleGain times one GAIN schedule of the sweep's Pareto
// Montage-24 pane: the budget-limited upgrade loop, whose every trial the
// replayer prices incrementally. scripts/bench.sh gates its ns/op.
func BenchmarkScheduleGain(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	alg := sched.NewGain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Schedule(wf, sched.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleLargeMapReduce times AllPar1LnSDyn on a 100-mapper
// MapReduce — the level-scheduler's stress case.
func BenchmarkScheduleLargeMapReduce(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.MapReduce(100, 10), 42)
	alg := sched.NewAllPar1LnSDyn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Schedule(wf, sched.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimReplay times the discrete-event execution of a schedule.
func BenchmarkSimReplay(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.MapReduce(100, 10), 42)
	s, err := sched.Baseline().Schedule(wf, sched.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(s, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventQueue times raw heap throughput.
func BenchmarkEventQueue(b *testing.B) {
	r := stats.NewRNG(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q eventq.Heap[int32]
		for j, t := range times {
			q.Push(t, int32(j))
		}
		for {
			if _, _, ok := q.Pop(); !ok {
				break
			}
		}
	}
}

// BenchmarkParetoSampling times the workload generator.
func BenchmarkParetoSampling(b *testing.B) {
	d := workload.ExecDist()
	r := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(r)
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationBootTime contrasts the paper's pre-booted assumption
// with simulated on-demand boots of two minutes.
func BenchmarkAblationBootTime(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 42)
	s, err := sched.NewAllPar(provision.AllParExceed, cloud.Small).Schedule(wf, sched.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, boot := range []float64{0, 120} {
		name := "preboot"
		if boot > 0 {
			name = "boot120s"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(s, sim.Config{BootTime: boot}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRegion re-prices the sweep in the cheapest and the most
// expensive region: relative results (the paper's percentages) are
// region-invariant because all prices scale together.
func BenchmarkAblationRegion(b *testing.B) {
	for _, region := range []cloud.Region{cloud.USEastVirginia, cloud.SASaoPaulo} {
		b.Run(region.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{Seed: 42, Region: region}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Benches for the systems beyond the paper's headline grid ---

// BenchmarkFrontierCell times one boundary-exploration grid cell (all 19
// strategies on one synthetic workflow, averaged over 2 draws).
func BenchmarkFrontierCell(b *testing.B) {
	cfg := frontier.Config{
		Widths: []int{8},
		Depth:  3,
		Alphas: []float64{2.0},
		Scales: []float64{0.5},
		Seed:   1,
		Reps:   2,
	}
	for i := 0; i < b.N; i++ {
		if _, err := frontier.Explore(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineStream times the auto-scaled execution of 100 workflow
// instances.
func BenchmarkOnlineStream(b *testing.B) {
	cfg := online.Config{
		MeanInterarrival: 120,
		Instances:        100,
		Instance: func(i int, r *stats.RNG) *dag.Workflow {
			return workload.Pareto.Apply(workflows.CSTEM(), r.Uint64())
		},
		Type:   cloud.Small,
		Region: cloud.USEastVirginia,
		MaxVMs: 32,
		Seed:   1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// onlineSoakInstances is the soak benchmark's stream length, mirrored by
// cmd/bench's instances/sec gate (onlineBenchInstances there).
const onlineSoakInstances = 10_000

// BenchmarkOnlineSoak times the continuous-traffic harness at soak scale:
// a heavy-tail template mix with cold starts and per-second market
// billing, the configuration whose instances/sec rate scripts/bench.sh
// gates against the committed baseline.
func BenchmarkOnlineSoak(b *testing.B) {
	order, err := ndwf.Named("order")
	if err != nil {
		b.Fatal(err)
	}
	montage, err := ndwf.Named("montage2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := online.Config{
		MeanInterarrival: 20,
		Instances:        onlineSoakInstances,
		Mix: []online.MixEntry{
			{Template: order, Weight: 3},
			{Template: montage, Weight: 1},
		},
		Type:   cloud.Small,
		Region: cloud.USEastVirginia,
		MaxVMs: 256,
		Market: &market.Model{
			Gran: market.PerSecond,
			Cold: market.ColdStart{Dist: "fixed", Mean: 45},
			Seed: 1,
		},
		Deadline: 7200,
		Seed:     42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplateSample times one fresh sampled instance of the soak
// mix: each op picks order or montage2 by the soak's 3:1 weights and
// samples the pick at a fresh seed, both from one stream, through
// Template.Sample, which validates the template and lays the instance out
// in arrays of its own, as every caller that keeps its instances does.
// scripts/bench.sh gates its ns/op and allocs/op.
func BenchmarkTemplateSample(b *testing.B) {
	order, err := ndwf.Named("order")
	if err != nil {
		b.Fatal(err)
	}
	montage, err := ndwf.Named("montage2")
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pick := montage
		if r.Float64()*4 < 3 {
			pick = order
		}
		if _, err := pick.Sample(r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplateSampleReuse times BenchmarkTemplateSample's draws
// through one ndwf.Sampler over the checked templates, as online's mix
// builder samples each arriving instance: every instance is laid out in
// the arrays of the ones before it, so an op allocates only the
// instance's name. It is the sampling layer under OnlineSoak, and
// scripts/bench.sh gates its ns/op and allocs/op.
func BenchmarkTemplateSampleReuse(b *testing.B) {
	var checked [2]ndwf.Checked
	for i, name := range []string{"order", "montage2"} {
		tpl, err := ndwf.Named(name)
		if err == nil {
			checked[i], err = tpl.Check()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	var s ndwf.Sampler
	r := stats.NewRNG(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pick := checked[1]
		if r.Float64()*4 < 3 {
			pick = checked[0]
		}
		if _, err := s.Sample(pick, r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAXRoundTrip times serializing and re-parsing the Montage DAG
// through the Pegasus DAX format.
func BenchmarkDAXRoundTrip(b *testing.B) {
	wf := workflows.PaperMontage()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := dax.Encode(&buf, wf); err != nil {
			b.Fatal(err)
		}
		if _, err := dax.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSeedStability times the 5-seed robustness analysis.
func BenchmarkMultiSeedStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.MultiSeed(core.Config{}, 1, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalability times the level scheduler across workflow sizes to
// expose the planner's growth rate.
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{30, 120, 480} {
		wf := workload.Pareto.Apply(workflows.MapReduce(n/3, n/6), 1)
		alg := sched.NewAllPar(provision.AllParExceed, cloud.Small)
		b.Run(fmt.Sprintf("tasks-%d", wf.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Schedule(wf, sched.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHCOCDeadlineCurve times one hybrid-cloud deadline search.
func BenchmarkHCOCDeadlineCurve(b *testing.B) {
	wf := workload.Pareto.Apply(workflows.PaperMontage(), 1)
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewHCOC(2, 8000, cloud.Large).Schedule(wf, sched.DefaultOptions()); err != nil && err != sched.ErrDeadlineUnreachable {
			b.Fatal(err)
		}
	}
}

// BenchmarkSLASearch times one deadline portfolio search: the 6-tile
// Montage template against a 4000 s deadline at P >= 0.95, the 21
// registry strategies crossed with the none and spot markets, 50 samples
// a candidate under the flaky fault preset, on 2 workers. It is the
// configuration of the benchmark module's sla workload at a quarter of
// its sample count, and scripts/bench.sh gates its ns/op and allocs/op.
func BenchmarkSLASearch(b *testing.B) {
	tpl, err := ndwf.Named("montage")
	if err != nil {
		b.Fatal(err)
	}
	fc, err := fault.Preset("flaky")
	if err != nil {
		b.Fatal(err)
	}
	fc.Seed = 1
	cfg := sla.SearchConfig{
		Deadline: 4000,
		Target:   0.95,
		Config:   sla.Config{Samples: 50, Seed: 1, Workers: 2, Faults: &fc},
		Markets:  []string{"none", "spot"},
		Opts:     sched.DefaultOptions(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sla.Search(tpl, cfg); err != nil && !errors.Is(err, sla.ErrNoStrategyMeets) {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceScheduleCold times a full uncached POST /v1/schedule
// round trip — admission, planning, baseline comparison, encoding —
// varying the seed each iteration so every request misses the cache. The
// cache has room for about one of these 13.5 KB bodies a shard, so each
// miss is stored and evicts an earlier one.
func BenchmarkServiceScheduleCold(b *testing.B) {
	svc := service.New(service.Config{CacheBytes: 256 << 10})
	defer svc.Close()
	h := svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":%d}`, i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkServiceScheduleCached times the hit path: the same request
// repeated, answered from the sharded LRU without touching the planner.
func BenchmarkServiceScheduleCached(b *testing.B) {
	svc := service.New(service.Config{})
	defer svc.Close()
	h := svc.Handler()
	const body = `{"workflow_name":"montage24","strategy":"AllParExceed-m","scenario":"Pareto","seed":7}`
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(body)))
	if warm.Code != 200 {
		b.Fatalf("warmup status %d: %s", warm.Code, warm.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
	if svc.Metrics().CacheHits < uint64(b.N) {
		b.Fatalf("cache hits %d < %d iterations", svc.Metrics().CacheHits, b.N)
	}
}
