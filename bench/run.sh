#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs
# it, passing every argument through:
#
#   bash bench/run.sh --workload batched-exact --seed 7 --seconds 15 --trace 0
#
# The binary, the Go build cache and all scratch files live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, so a run
# writes nothing outside it. Without the repository's go.mod next to
# bench/, the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C "$root/bench" build -o "$out/sconnabench" .
exec "$out/sconnabench" "$@"
