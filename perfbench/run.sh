#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-profile --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced run's spans all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
