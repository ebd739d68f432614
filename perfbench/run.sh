#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache,
# the benchmark's database files and span dumps all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
