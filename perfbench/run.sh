#!/usr/bin/env bash
# Builds the benchmark, together with the pegasus module one directory up,
# into .bench_build at the checkout root, then runs it with the arguments
# given, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Every file the build or the run writes stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-mod" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build" "$@"
