package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R) Processor
BenchmarkFullParanoidSweep-8   	     300	   7600000 ns/op	 1621560 B/op	    9496 allocs/op
BenchmarkSimReplay-8           	   17000	    150000 ns/op	    3792 B/op	       3 allocs/op
BenchmarkOnlineSoak-8          	      15	 200000000 ns/op	63958447 B/op	  854785 allocs/op
BenchmarkHEFTRanks             	 9000000	       280.0 ns/op	     192 B/op	       1 allocs/op
BenchmarkServiceScheduleCached-8	   30000	     40000 ns/op	   24000 B/op	      80 allocs/op
BenchmarkServiceScheduleCold-8  	    2400	    500000 ns/op	  190000 B/op	    1100 allocs/op
BenchmarkSLASearch-8            	      20	  60000000 ns/op	13800000 B/op	   89000 allocs/op
BenchmarkScheduleGain-8         	    5000	    300000 ns/op	   30000 B/op	     200 allocs/op
BenchmarkTemplateSample-8       	  600000	      4000 ns/op	    3600 B/op	      18 allocs/op
BenchmarkTemplateSampleReuse-8  	 1000000	      2000 ns/op	      16 B/op	       1 allocs/op
PASS
`

func parsed(t *testing.T, text string) map[string]Bench {
	t.Helper()
	out, _, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseDerivesThroughputs(t *testing.T) {
	out := parsed(t, benchText)
	if len(out) != 10 {
		t.Fatalf("parsed %d benchmarks: %v", len(out), out)
	}
	sweep := out[sweepBench]
	if sweep.Iterations != 300 || sweep.NsPerOp != 7.6e6 || sweep.AllocsPerOp != 9496 {
		t.Errorf("sweep bench: %+v", sweep)
	}
	wantCells := sweepCells / (7.6e6 / 1e9)
	if sweep.CellsPerSec != wantCells {
		t.Errorf("cells/s = %v, want %v", sweep.CellsPerSec, wantCells)
	}
	soak := out[onlineBench]
	wantInst := onlineBenchInstances / (2e8 / 1e9)
	if soak.InstancesPerSec != wantInst {
		t.Errorf("instances/s = %v, want %v", soak.InstancesPerSec, wantInst)
	}
	if out["HEFTRanks"].InstancesPerSec != 0 || out["HEFTRanks"].CellsPerSec != 0 {
		t.Errorf("derived rates leaked onto other benches: %+v", out["HEFTRanks"])
	}
}

// TestParseRecordsMachine reads the CPU model from the header and
// GOMAXPROCS from the first benchmark name's suffix, 1 when it has none.
func TestParseRecordsMachine(t *testing.T) {
	for _, c := range []struct {
		text string
		want Machine
	}{
		{benchText, Machine{CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 8}},
		{"BenchmarkHEFTRanks 9000000 280.0 ns/op\nBenchmarkSimReplay-8 17000 150000 ns/op\n", Machine{GOMAXPROCS: 1}},
	} {
		_, got, err := parse(bufio.NewScanner(strings.NewReader(c.text)))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("machine %+v, want %+v", got, c.want)
		}
	}
}

func TestParseRejectsMalformedValues(t *testing.T) {
	bad := "BenchmarkFullParanoidSweep-8 300 oops ns/op\n"
	if _, _, err := parse(bufio.NewScanner(strings.NewReader(bad))); err == nil {
		t.Error("malformed value accepted")
	}
}

// writeBaseline marshals an artifact for gate() to load.
func writeBaseline(t *testing.T, art Artifact) string {
	t.Helper()
	buf, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func artifactFrom(t *testing.T, text string) Artifact {
	t.Helper()
	return Artifact{Benchmarks: parsed(t, text)}
}

func TestGateAllClausesPassAtBaseline(t *testing.T) {
	art := artifactFrom(t, benchText)
	path := writeBaseline(t, art)
	if err := gate(art, path); err != nil {
		t.Errorf("identical run failed the gate: %v", err)
	}
}

func TestGateFailsEachRegression(t *testing.T) {
	base := artifactFrom(t, benchText)
	path := writeBaseline(t, base)
	for _, g := range gates {
		for _, worse := range []float64{1 + 2*g.tol, 1 - 2*g.tol} {
			if (worse < 1) != g.higher {
				continue
			}
			run := artifactFrom(t, benchText)
			b := run.Benchmarks[g.bench]
			scale(&b, g.metric, worse)
			run.Benchmarks[g.bench] = b
			err := gate(run, path)
			if err == nil || !strings.Contains(err.Error(), g.bench+" regressed") || !strings.Contains(err.Error(), g.metric) {
				t.Errorf("%s %s scaled by %v: gate error = %v", g.bench, g.metric, worse, err)
			}
			// Within the tolerance, in the same direction, passes.
			run = artifactFrom(t, benchText)
			b = run.Benchmarks[g.bench]
			scale(&b, g.metric, 1+(worse-1)/4)
			run.Benchmarks[g.bench] = b
			if err := gate(run, path); err != nil {
				t.Errorf("%s %s within tolerance: %v", g.bench, g.metric, err)
			}
		}
	}
}

// scale multiplies one metric of a benchmark.
func scale(b *Bench, metric string, f float64) {
	switch metric {
	case "ns/op":
		b.NsPerOp *= f
	case "allocs/op":
		b.AllocsPerOp *= f
	case "cells/s":
		b.CellsPerSec *= f
	case "instances/s":
		b.InstancesPerSec *= f
	}
}

func TestGateSkipsMetricsAbsentFromBaseline(t *testing.T) {
	// An older baseline without SimReplay/OnlineSoak skips their rows.
	base := artifactFrom(t, benchText)
	delete(base.Benchmarks, "SimReplay")
	delete(base.Benchmarks, onlineBench)
	path := writeBaseline(t, base)
	run := artifactFrom(t, benchText)
	b := run.Benchmarks[onlineBench]
	b.InstancesPerSec = 1 // would fail hard if the clause ran
	run.Benchmarks[onlineBench] = b
	if err := gate(run, path); err != nil {
		t.Errorf("gate ran a clause the baseline cannot support: %v", err)
	}
	if err := gate(run, writeBaseline(t, Artifact{})); err == nil {
		t.Error("a baseline recording none of the gated metrics passed")
	}
}

func TestGateRejectsRunsMissingGatedMetrics(t *testing.T) {
	base := artifactFrom(t, benchText)
	path := writeBaseline(t, base)
	run := artifactFrom(t, benchText)
	delete(run.Benchmarks, onlineBench)
	if err := gate(run, path); err == nil {
		t.Error("run without the soak passed a gating baseline")
	}
	if err := gate(Artifact{}, path); err == nil {
		t.Error("empty run passed the gate")
	}
	if err := gate(base, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
}

func TestEmitRoundTripsThroughParse(t *testing.T) {
	art := artifactFrom(t, benchText)
	art.GOOS, art.GOARCH = "linux", "amd64"
	path := writeBaseline(t, art)

	// emitBenchText writes to stdout; capture it through a pipe.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	emitErr := emitBenchText(path)
	w.Close()
	os.Stdout = old
	if emitErr != nil {
		t.Fatal(emitErr)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	back := parsed(t, sb.String())
	if len(back) != len(art.Benchmarks) {
		t.Fatalf("round-trip kept %d of %d benchmarks:\n%s", len(back), len(art.Benchmarks), sb.String())
	}
	if back[sweepBench].NsPerOp != art.Benchmarks[sweepBench].NsPerOp {
		t.Errorf("sweep ns/op round-trip: %v != %v", back[sweepBench].NsPerOp, art.Benchmarks[sweepBench].NsPerOp)
	}

	if err := emitBenchText(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("emit of a missing artifact succeeded")
	}
}
