#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given flags. Run it from the repository root:
#
#   bash bench/run.sh -workload serve-hot -seed 1 -seconds 15 -trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build, and the toolchain never reaches the
# network: the module depends only on the repository itself.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
