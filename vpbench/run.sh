#!/usr/bin/env bash
# Builds the vpbench benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash vpbench/run.sh --workload cold-sweep --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, result files, scratch stores) lands under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/go-path" "$out/config"

# The Go tool's caches, temporary files and user config (telemetry
# included) all stay under $out.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C "$here" -buildvcs=false -o "$out/vpbench" .
export VPBENCH_OUT="$out"
exec "$out/vpbench" "$@"
