#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, binary, traces) stays under $CARGO_TARGET_DIR, which
# defaults to .bench_build in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# HOME and XDG_CONFIG_HOME keep the toolchain's own state (telemetry
# counters) inside the build directory too.
(
  export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
  export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOWORK=off
  export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
  export HOME="$out/config" XDG_CONFIG_HOME="$out/config"
  cd perfbench && go build -o "$out/perfbench" .
)
exec "$out/perfbench" --trace-dir "$out" "$@"
