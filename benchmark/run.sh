#!/usr/bin/env bash
# The gate's one command: build the load generator from source into
# .bench_build/ at the root of the checkout, then run it with the caller's
# flags. Everything the build writes (Go's build cache included) stays inside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/lovogate" ./cmd/lovogate
exec "$build/lovogate" "$@"
