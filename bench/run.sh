#!/usr/bin/env bash
# Builds pipebench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload hybrid_cold --seed 1 --seconds 20 --trace 0
#
# The build, the Go caches and the daemons' working directories all stay
# under .bench_build/ in the repository root. Without the repository's
# sources next to bench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config # go env and telemetry files
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" -workdir "$out/work" "$@"
