#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the toolchain writes (build cache, temp
# files, the binary) goes under benchmark/out, which git ignores; nothing
# is fetched. In a directory without the repository's sources the build
# fails and this script exits non-zero before any result is printed.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$here/out/gotmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/gotmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o out/benchmark .)
exec "$here/out/benchmark" "$@"
