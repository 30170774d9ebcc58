#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload kv-oltp --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache go
# to .bench_build/ under that root; build chatter goes to stderr, so
# standard output holds only the benchmark's own lines.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep every write of the go command (build cache, temp files, module
# cache, telemetry counters under the user config dir) inside .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
