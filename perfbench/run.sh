#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root: bash perfbench/run.sh --workload serve-read ...
#
# The Go build cache, the binary and every file the benchmark writes stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
# HOME moves everything else the go command may write (GOPATH, the
# telemetry and config directories) into the checkout as well.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
