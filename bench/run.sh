#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache
# included, so nothing is written outside it) and runs it with the given
# arguments. BENCHMARK.json names this script as its command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOPATH="$here/out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$here/out/bench" . >&2
exec "$here/out/bench" "$@"
