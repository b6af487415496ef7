#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on:
#
#   bash perfbench/run.sh --workload kb-sssp --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build cache, temporary files, the go command's
# config and telemetry directory) go to .bench_build at the repository root,
# so the run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
