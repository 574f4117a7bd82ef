#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload tune --seed 1 --seconds 25 --trace 0
#
# Everything a run writes — the Go build cache, the binary, span files and
# the mixed workload's stores — stays under .bench_build/ in the repository
# root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
