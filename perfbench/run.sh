#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fast-64 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout's root. Without the repository's sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
