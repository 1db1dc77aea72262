#!/usr/bin/env bash
# run.sh — build rwsbench and run it from the root of a checkout.
#
# Usage (from the repository root):
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the benchmark's working files
# stay under .bench_build/ in the checkout. A directory that does not hold
# the simulator's sources is refused with exit status 2.
set -euo pipefail

root="$PWD"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rwsimd" ] || [ ! -d "$root/cmd/experiments" ]; then
    echo "run.sh: $root holds no rwsfs sources (go.mod, cmd/rwsimd, cmd/experiments); run it from the repository root" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry counters
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off

go build -C "$root/bench" -o "$out/bin/rwsbench" ./rwsbench
exec "$out/bin/rwsbench" -root "$root" "$@"
