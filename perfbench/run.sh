#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload read-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch files all stay under the build directory inside the
# checkout: $CARGO_TARGET_DIR when the caller names one, else .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# Build offline with the installed toolchain only, ignoring any user-level
# Go configuration; the benchmark module has no dependencies to fetch.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -work "$out/perfbench-work" "$@"
