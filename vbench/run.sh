#!/usr/bin/env bash
# Builds the vids benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash vbench/run.sh --workload call_churn --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the
# run write (Go build cache, binary, span files) goes under
# .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/vbench" .) >&2
exec "$out/vbench" "$@"
