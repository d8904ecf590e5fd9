#!/usr/bin/env bash
# Builds pcserve and the benchmark from this checkout's sources, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload rag-stream --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pcserve" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/pcserve not found)" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off

go build -o "$out/pcserve" ./cmd/pcserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --pcserve "$out/pcserve" --workdir "$out/run" "$@"
