#!/usr/bin/env bash
# Builds the coremap benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload survey-icx --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and Go's own state all live in .bench_build/
# at the repository root, so nothing is read or written outside the
# checkout. The benchmark is a module of its own that takes the coremap
# module from the directory above it; without that source the build fails
# and the script exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/coremap-bench" .)
exec "$build/coremap-bench" "$@"
