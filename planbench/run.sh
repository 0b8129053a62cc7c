#!/usr/bin/env bash
# Builds the planner benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash planbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's JSONL traces all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout. The build fails, and so does this script, when
# the module the benchmark measures is not one directory up.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd planbench && go build -o "$out/planbench" .)
exec "$out/planbench" --out "$out" "$@"
