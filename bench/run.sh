#!/usr/bin/env bash
# Builds the benchmark — a Go module of its own in this directory, which
# imports the repository's packages through a replace directive — and runs
# it with the given arguments from the directory the caller stands in.
# Everything the build writes (binary, Go build cache, Go's own settings and
# counters) goes under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$build/out" "$@"
