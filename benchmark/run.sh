#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash benchmark/run.sh --workload paper-1c --seed 1 --seconds 10 --trace 0
# Every file the build writes (binary, Go build cache, temporaries, the go
# command's config) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root (needs go.mod, internal/ and benchmark/)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command may start a detached upload
# process that outlives this script.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd benchmark && go build -o "$out/supermem-benchmark" .) >&2
exec "$out/supermem-benchmark" "$@"
