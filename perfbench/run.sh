#!/usr/bin/env bash
# Builds the scout benchmark from the source tree it sits in and runs it
# with the given arguments. Every build product, cache and scratch file
# stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
