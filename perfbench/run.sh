#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the checkout root. Build outputs, the Go build cache and
# everything else the toolchain writes stay under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
