#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload poller-bursts --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's work area all
# live under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" "$@"
