#!/usr/bin/env bash
# The benchmark's entry point — BENCHMARK.json's command. Builds the bench
# binary from source into bench/.build/, then runs it from the repository
# root with the arguments given. Everything the build writes, Go's build
# cache and temporary files included, stays inside bench/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
cd "$here/.."
exec "$build/bench" "$@"
