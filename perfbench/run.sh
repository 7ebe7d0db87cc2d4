#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sizing --seed 1 --seconds 30 --trace 0
#
# The compiler cache, the binary and the trace files stay under
# .bench_build/ in the checkout; the first build fills the cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d perfbench ]; then
    echo "perfbench: run from the root of a full checkout (go.mod, internal/ and perfbench/)" >&2
    exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/perfbench.bin" ./perfbench
exec "$out/perfbench.bin" "$@"
