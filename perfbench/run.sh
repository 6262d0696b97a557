#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cli-rup --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files all stay under
# .bench_build/ in the current directory. Without the repository's own
# sources next to perfbench/ the build fails and so does this script.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
