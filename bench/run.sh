#!/usr/bin/env bash
# Builds the p3cledger benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload mvb-200k --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -workload all -seed 1 -reps 7 -out ledger.json
#   bash bench/run.sh -compare A.json B.json
#
# Run it from the repository root. Everything it builds or writes — the Go
# build cache, the binary, generated data sets, spill files — stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command's env file and its local telemetry counters live in the
# user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/p3cledger" ./p3cledger)
exec "$out/p3cledger" "$@"
