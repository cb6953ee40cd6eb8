#!/usr/bin/env bash
# Builds wfbench from source and runs it with the given flags. Run it from
# the root of the repository:
#
#   bash benchmark/run.sh -workload all -seed 1
#
# Everything the build writes (the Go build cache, its temporary files and
# the binary) stays in .bench_build/ under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C benchmark build -buildvcs=false -o "$out/wfbench" ./wfbench
exec "$out/wfbench" "$@"
