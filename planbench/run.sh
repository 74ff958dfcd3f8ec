#!/usr/bin/env bash
# Builds the planning benchmark from source and runs it. Run from the
# repository root; every argument is passed on to the benchmark:
#
#   bash planbench/run.sh --workload flat-paper --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and traces stay under
# .bench_build in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd planbench && go build -o "$out/planbench" .)
exec "$out/planbench" "$@"
