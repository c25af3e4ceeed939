#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file either
# step writes — Go's build cache, the binary, the run's scratch directory —
# under .bench_build/ in the checkout it is run from (its root):
#
#   bash bench/run.sh --workload uniq-4k --seed 1 --seconds 10 --trace 0
set -euo pipefail

# Without the program there is nothing to build: say so before any tool runs.
if [ ! -f go.mod ] || [ ! -d internal/server ]; then
  echo "bench/run.sh: no go.mod and internal/ here; run it from the root of a full checkout" >&2
  exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

# A fresh HOME makes the go command start its telemetry sidecar, a detached
# process that can outlive a short run. The mode file turns it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
