#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash sxbench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (the binary, Go's build cache, the
# daemon's socket, span logs) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -eu
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
abs="$out"
case "$abs" in /*) ;; *) abs="$root/$out" ;; esac
mkdir -p "$abs/tmp"
export GOCACHE="$abs/gocache" GOMODCACHE="$abs/gomodcache" GOPATH="$abs/gopath" \
	GOTMPDIR="$abs/tmp" XDG_CONFIG_HOME="$abs/config" GOTOOLCHAIN=local GOPROXY=off \
	SXBENCH_OUT="$out"
(cd sxbench && go build -o "$abs/sxbench" .)
exec "$abs/sxbench" "$@"
