#!/usr/bin/env bash
# Builds the coldtall CLI and the perfbench binary from this checkout and
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve_mix --seed 7 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch files, result and
# span files) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gotmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/gotmp
export GOPATH=$build/gopath GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/bin/coldtall" ./cmd/coldtall >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -coldtall "$build/bin/coldtall" -work "$build" "$@"
