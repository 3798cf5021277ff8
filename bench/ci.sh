#!/usr/bin/env bash
# What a CI job calls for the benchmark: vet and test this module (the root
# module's `go test ./...` does not reach it), then two full untraced sets of
# the same code and `compare`, to show the benchmark agrees with itself.
# Fails when compare reports a metric "worse", a higher ops_failed_share, or a
# metric whose run-to-run spread is wider than its bound ("unresolved").
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/out"
mkdir -p "$here/.build/tmp"
export GOCACHE="$here/.build/gocache" GOTMPDIR="$here/.build/tmp" GOPATH="$here/.build/gopath"
(cd "$here" && go vet ./... && go test ./...)
bash "$here/run.sh" -out "$out/ci-A.json"
bash "$here/run.sh" -out "$out/ci-B.json"
bash "$here/run.sh" compare "$out/ci-A.json" "$out/ci-B.json" | tee "$out/ci-compare.txt"
if grep -q unresolved "$out/ci-compare.txt"; then
	echo "ci.sh: two sets of the same code do not resolve within the bounds" >&2
	exit 1
fi
