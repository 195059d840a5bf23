#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays under
# .bench_build in the current directory, so the benchmark writes nothing
# outside the checkout it runs in.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
export GOPATH="$out/gopath" GOENV=off XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

# Build to a private name and rename, so two runs never execute a
# half-written binary.
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
