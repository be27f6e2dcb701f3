#!/usr/bin/env bash
# Builds swserve, swworker and the e2e benchmark from source into
# .bench_build/bin, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload micromag-cold --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ (Go's
# build cache included). Build time is not part of any metric.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/swserve" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/swserve and bench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/swserve ./cmd/swworker
(cd bench && go build -o "$build/bin/e2e" ./e2e)
exec "$build/bin/e2e" "$@"
