#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds paragonbench from source
# into .bench_build/ of the checkout it is run from, then runs it with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is kept inside .bench_build/ as well.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bin/paragonbench" ./cmd/paragonbench)
exec "$build/bin/paragonbench" "$@"
