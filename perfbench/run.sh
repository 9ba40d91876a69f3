#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-raw --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary)
# stays under .bench_build/ in the working directory. Without the rest of
# the repository beside perfbench/ the build fails and so does the run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
  GOTOOLCHAIN=local GOWORK=off GOENV=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
