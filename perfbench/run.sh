#!/usr/bin/env bash
# Builds the benchmark and the refereed daemon from the checkout it
# is started in, then runs one benchmark workload. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload hit-large --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary build directories, the daemon's
# log and the span dumps of traced runs.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/bin/" . repro/cmd/refereed
exec "$out/bin/perfbench" -refereed "$out/bin/refereed" -out "$out" "$@"
