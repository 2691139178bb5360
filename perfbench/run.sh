#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Everything the build writes (Go build cache, temporary files,
# the binary) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
