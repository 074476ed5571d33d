#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload full-pq --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ there: the binary, the Go build cache,
# and the result and span files (under .bench_build/results). A failed build exits non-zero and prints
# no result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
