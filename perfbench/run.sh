#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temporary work directory, configuration)
# under .bench_build in the current directory. Run from the repository root:
#
#   bash perfbench/run.sh --workload ipm-analog --seed 1 --seconds 20 --trace 0
#
# Outside a full checkout (no go.mod beside perfbench/) the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
