#!/usr/bin/env bash
# Reproducible benchmark harness: runs the perf-tracked benchmarks and
# converts the result into the BENCH_sweep.json artifact via cmd/bench.
#
#   scripts/bench.sh                          # 2s benchtime, writes BENCH_sweep.json
#   BENCHTIME=100ms scripts/bench.sh          # quick CI pass
#   AGAINST=BENCH_sweep.json OUT=/tmp/now.json scripts/bench.sh
#                                             # gate vs the committed baseline
#
# Environment:
#   BENCHTIME  go test -benchtime (default 2s)
#   OUT        artifact path (default BENCH_sweep.json; '-' for stdout)
#   AGAINST    baseline artifact; fails when any row of cmd/bench's gate
#              table regresses past its tolerance: the full-sweep cells/s,
#              the SimReplay ns/op, the OnlineSoak instances/s and
#              allocs/op, the TemplateSample and TemplateSampleReuse ns/op
#              and allocs/op, the ServiceScheduleCached ns/op and allocs/op, the
#              ServiceScheduleCold ns/op and allocs/op, the SLASearch
#              ns/op and allocs/op, and the ScheduleGain ns/op
#   RAW        also save the raw `go test -bench` text here (benchstat input)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_sweep.json}"
AGAINST="${AGAINST:-}"
RAW="${RAW:-}"

args=(-out "$OUT")
if [ -n "$AGAINST" ]; then
  args+=(-against "$AGAINST")
fi

raw_sink=/dev/null
if [ -n "$RAW" ]; then
  raw_sink="$RAW"
fi

go test -run '^$' -count 1 -benchmem -benchtime "$BENCHTIME" \
  -bench '^(BenchmarkFullParanoidSweep|BenchmarkScheduleLargeMapReduce|BenchmarkScheduleMontage|BenchmarkHEFTRanks|BenchmarkSimReplay|BenchmarkServiceScheduleCached|BenchmarkServiceScheduleCold|BenchmarkOnlineSoak|BenchmarkSLASearch|BenchmarkScheduleGain|BenchmarkTemplateSample|BenchmarkTemplateSampleReuse)$' . \
  | tee /dev/stderr | tee "$raw_sink" | go run ./cmd/bench "${args[@]}"

if [ "$OUT" != "-" ]; then
  echo "wrote $OUT" >&2
fi
