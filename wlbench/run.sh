#!/usr/bin/env bash
# Builds the workload benchmark from the sources in this checkout and
# runs it with the given arguments. Run it from the repository root:
#
#   bash wlbench/run.sh --workload served-mix --seed 7 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under .bench_build, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"

export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOMODCACHE=$out/go-mod
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$src" && go build -o "$out/wlbench" .)
exec "$out/wlbench" "$@"
