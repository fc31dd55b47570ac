#!/usr/bin/env bash
# Builds the benchmark runner from the source tree it sits in and runs it,
# passing every argument through. Run it from the root of the repository:
#
#   bash mfvbench/run.sh --workload wan30-whatif --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/mfvbench" && go build -o "$out/bin/mfvbench" .)
exec "$out/bin/mfvbench" "$@"
