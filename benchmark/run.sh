#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write (Go build cache, the binary, temp
# directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/spes-bench" .
cd "$root"
exec "$build/spes-bench" "$@"
