#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wide-window --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, scratch directories, span files)
# go to $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench" .
commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
