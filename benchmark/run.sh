#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# file it writes (Go build cache, binaries, temp and spill dirs) stays under
# <checkout>/.bench_build. Arguments are passed through to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
