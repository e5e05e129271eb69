#!/usr/bin/env bash
# Builds the benchmark and the parsvd-worker binary from this checkout,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build and the
# run write (Go caches, binaries, WAL directories, spans) goes under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/parsvd-worker" goparsvd/cmd/parsvd-worker
) >&2

export PARSVD_WORKER="$out/bin/parsvd-worker"
exec "$out/bin/perfbench" "$@"
