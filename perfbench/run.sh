#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-matmul --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; the driver binary is exec'd, so it is the only process left.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off GOPROXY=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
