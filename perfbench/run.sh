#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload backbone --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout; traced runs write their Chrome trace there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/home"
export XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
