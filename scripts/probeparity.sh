#!/usr/bin/env bash
# Prints where the benchmark's host-probe loop lands in the binary that
# benchmark/run.sh builds from this checkout, and that address mod 64.
#
# wall_ref_s and cpu_ref_s are measured seconds divided by a host factor
# the harness probes with that loop, and the loop runs ~22 % slower when
# its function starts at 32 (mod 64) than at 0 — so two commits compare on
# wall_ref_s only if this script prints the same residue for both
# (ROADMAP aim 1). With an argument it examines that checkout instead
# (a parent commit cloned elsewhere). It builds exactly as run.sh does
# and leaves only benchmark/out behind.
set -euo pipefail
root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
here="$root/benchmark"
mkdir -p "$here/out/gotmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/gotmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o out/benchmark .)
addr=$(go tool nm -n "$here/out/benchmark" | awk '$3 ~ /hostProbe\)\.pass\.func1$/ {print $1}')
if [ -z "$addr" ]; then
	echo "probeparity: no hostProbe.pass.func1 in $here/out/benchmark" >&2
	exit 1
fi
echo "hostProbe.pass.func1 at 0x$addr, mod 64 = $((16#$addr % 64))"
