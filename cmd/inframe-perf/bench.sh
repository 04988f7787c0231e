#!/usr/bin/env bash
# Builds inframe-perf from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/inframe-perf/bench.sh --workload clean-gray --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's own config and
# telemetry files and the binary stay under .bench_build in the checkout; the
# toolchain runs offline with the local Go version.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/inframe-perf"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C cmd/inframe-perf build -o "$out/inframe-perf" .
exec "$out/inframe-perf" "$@"
