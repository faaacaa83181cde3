#!/usr/bin/env bash
# Builds ogdpserve and the benchmark from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the generated corpora live
# under .bench_build/ in the checkout; nothing is written outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "run.sh: run from the repository root (needs go.mod and benchmark/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go build -o "$out/bin/ogdpserve" ./cmd/ogdpserve
(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)

exec "$out/bin/benchmark" --work "$out/work" --serve-bin "$out/bin/ogdpserve" "$@"
